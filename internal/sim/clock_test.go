package sim

import (
	"fmt"
	"testing"

	duplo "duplo/internal/core"
	"duplo/internal/workload"
)

// clockModes returns the same configuration with the event-driven (default)
// and dense clocks.
func clockModes(cfg Config) (event, dense Config) {
	event = cfg
	event.denseClock = false
	dense = cfg
	dense.denseClock = true
	return event, dense
}

// diffRun simulates k under both clock modes and requires byte-identical
// results: every Stats field (including the arithmetically accounted stall
// counters) and the CTA counts. Kernel and Config are inputs, not outputs,
// so they are excluded (Config necessarily differs in denseClock). Both
// results must also pass the accounting invariants, whose issue-slot
// conservation checks the skip accounting without the dense oracle.
func diffRun(t *testing.T, name string, cfg Config, k *Kernel) {
	t.Helper()
	eventCfg, denseCfg := clockModes(cfg)
	ev, err := Run(eventCfg, k)
	if err != nil {
		t.Fatalf("%s event-driven: %v", name, err)
	}
	de, err := Run(denseCfg, k)
	if err != nil {
		t.Fatalf("%s dense: %v", name, err)
	}
	if ev.Stats != de.Stats {
		t.Errorf("%s: clock modes diverged\nevent: %+v\ndense: %+v", name, ev.Stats, de.Stats)
	}
	checkInvariants(t, ev, cfg.Duplo)
	checkInvariants(t, de, cfg.Duplo)
	if ev.SimulatedCTAs != de.SimulatedCTAs || ev.TotalCTAs != de.TotalCTAs {
		t.Errorf("%s: CTA counts diverged: %d/%d vs %d/%d",
			name, ev.SimulatedCTAs, ev.TotalCTAs, de.SimulatedCTAs, de.TotalCTAs)
	}
}

// TestClockModesByteIdenticalSmall is the always-on differential gate on
// the unit-test layer, baseline and Duplo.
func TestClockModesByteIdenticalSmall(t *testing.T) {
	k, err := NewConvKernel("clock-small", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	diffRun(t, "baseline", cfg, k)
	cfg.Duplo = true
	cfg.DetectCfg.LHB = duplo.DefaultLHBConfig()
	diffRun(t, "duplo", cfg, k)
}

// TestClockModesByteIdentical runs the dense-vs-event-driven differential
// over the Fig. 9 quick workloads (the determinism subset of the
// experiment engine: a duplication-rich stride-1 layer, a strided layer,
// and a GAN transposed layer), Duplo off and on (1024-entry LHB and the
// oracle) — the contract the engine's byte-identical tables rest on. Next
// to the quick-scale slice (2 SMs, 12 CTAs) it runs two uneven ones, where
// SMs finish at different cycles and then sit idle while the rest run: the
// per-SM skips and the end-of-run settle.
func TestClockModesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	layers := [][2]string{{"ResNet", "C2"}, {"ResNet", "C3"}, {"GAN", "TC4"}}
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"duplo1024", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Entries: 1024, Ways: 1}
		}},
		{"oracle", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Oracle: true}
		}},
	}
	for _, id := range layers {
		l, err := workload.Find(id[0], id[1])
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewConvKernel(l.FullName(), l.GemmParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, sl := range unevenSlices(2, 12) {
			for _, m := range modes {
				cfg := TitanVConfig()
				cfg.SimSMs, cfg.MaxCTAs = sl.sms, sl.ctas
				m.set(&cfg)
				diffRun(t, fmt.Sprintf("%s/%dsm-%dcta/%s", l.FullName(), sl.sms, sl.ctas, m.name), cfg, k)
			}
		}
	}
}

// unevenSlices returns the base (SimSMs, MaxCTAs) slice followed by two
// uneven ones, 3 SMs / 13 CTAs and 4 SMs / 16 CTAs.
func unevenSlices(sms, ctas int) []struct{ sms, ctas int } {
	return []struct{ sms, ctas int }{{sms, ctas}, {3, 13}, {4, 16}}
}

// TestEventClockSkips asserts the event-driven loop actually takes the
// skip path on a memory-bound configuration — guarding against the
// optimization silently degenerating to dense ticking. The run must be
// stall-dominated (the regime where skipping pays), the chip clock must
// visit fewer cycles than it simulates, and SMs must sleep through some of
// the visited cycles: executed SM ticks stay below loop iterations × SMs,
// which a loop ticking every SM whenever any SM can act would equal.
func TestEventClockSkips(t *testing.T) {
	k, err := NewConvKernel("skip", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.L1KB = 8
	cfg.L2KB = 64
	var g *gpuState
	setInjection(t, func(gs *gpuState) { g = gs })
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	schedCycles := res.Cycles * int64(cfg.SimSMs) * Schedulers
	if res.IssueStallCycles*2 < schedCycles {
		t.Fatalf("expected a stall-dominated run (stalls %d of %d scheduler-cycles)",
			res.IssueStallCycles, schedCycles)
	}
	// checkGuard runs on every loop iteration but the last.
	iterations := g.guard.ticks + 1
	if iterations >= res.Cycles+1 {
		t.Errorf("chip clock visited %d of %d cycles: no cycle skipped", iterations, res.Cycles+1)
	}
	if all := iterations * int64(cfg.SimSMs); g.smTicks >= all {
		t.Errorf("executed %d SM ticks over %d loop iterations x %d SMs: no SM slept",
			g.smTicks, iterations, cfg.SimSMs)
	}
}

// TestDueCyclesMatchScan ticks one SM of a quick cell (ResNet/C2, 12 CTAs,
// the 2-SM slice's memory system) cycle by cycle, Duplo off and on. After
// every tick it requires robHeads to hold exactly one entry per live warp
// with a non-empty ROB, keyed by its head's completion and in heap order,
// retireDue and ldstDue to equal a full scan of the live warps' ROB heads
// and of ldstBusy, and each scheduler that is asleep
// (schedWake > now) to have the wake and LDST-blocked flag a full scan of
// its warps' gates gives. A scheduler the tick skipped must also hold no
// warp that could issue, by an issue test written apart from gate
// (issuableNow). The clock differential cannot catch a wrong due cycle,
// because both clocks run the same tick.
func TestDueCyclesMatchScan(t *testing.T) {
	l, err := workload.Find("ResNet", "C2")
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewConvKernel(l.FullName(), l.GemmParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		cfg := TitanVConfig()
		cfg.SimSMs, cfg.MaxCTAs, cfg.Duplo = 2, 12, on
		var stats Stats
		g := &gpuState{cfg: cfg, kernel: k, mem: newMemSystem(cfg, &stats),
			totalCTAs: min(k.TotalCTAs(), cfg.MaxCTAs), ctasPerSM: k.CTAsPerSM()}
		sm := newSM(cfg, 0, g.mem, g)
		if on {
			if sm.du, err = duplo.NewDetectionUnit(cfg.DetectCfg, MaxWarpsPerSM, 32); err != nil {
				t.Fatal(err)
			}
			if err := sm.du.Program(*k.Conv, k.Layout); err != nil {
				t.Fatal(err)
			}
		}
		g.sms = []*smState{sm}
		g.dispatchTo(sm)
		now, skipped := int64(0), 0
		var asleep [Schedulers]bool
		heads := make([]int64, len(sm.warps)) // per slot: ROB head completion, -1 if none
		for ; sm.busy(); now++ {
			if now > 1<<24 {
				t.Fatalf("duplo=%v: still busy at cycle %d", on, now)
			}
			for sid, wake := range sm.schedWake {
				asleep[sid] = now < wake
			}
			sm.tick(now)
			retire, ldst, live := farFuture, farFuture, 0
			for s := range sm.warps {
				heads[s] = -1
				if w := &sm.warps[s]; w.active && !w.robEmpty() {
					heads[s] = w.rob[w.robHead].complete
					retire = min(retire, heads[s])
					live++
				}
			}
			for i, e := range sm.robHeads {
				if heads[e.slot] != e.complete {
					t.Fatalf("duplo=%v, cycle %d: robHeads holds (%d, slot %d), but that warp's ROB head completes at %d (-1: none, or already listed)",
						on, now, e.complete, e.slot, heads[e.slot])
				}
				heads[e.slot] = -1 // a second entry for the slot fails above
				if p := sm.robHeads[(i-1)/2]; i > 0 && p.complete > e.complete {
					t.Fatalf("duplo=%v, cycle %d: robHeads[%d] completes at %d, after its child %d at %d",
						on, now, (i-1)/2, p.complete, i, e.complete)
				}
			}
			if len(sm.robHeads) != live {
				t.Fatalf("duplo=%v, cycle %d: robHeads has %d entries for %d live warps with a non-empty ROB",
					on, now, len(sm.robHeads), live)
			}
			for _, c := range sm.ldstBusy {
				ldst = min(ldst, c)
			}
			if sm.retireDue() != retire || sm.ldstDue != ldst {
				t.Fatalf("duplo=%v, cycle %d: retireDue %d, ldstDue %d; a full scan gives %d, %d",
					on, now, sm.retireDue(), sm.ldstDue, retire, ldst)
			}
			for sid := range sm.schedWake {
				if sm.schedWake[sid] <= now {
					continue // sid issued this cycle: it runs again next cycle
				}
				wake, blocked := farFuture, false
				for s := sid; s < len(sm.warps); s += Schedulers {
					w := &sm.warps[s]
					if !w.active || w.pc >= w.prog.Len() {
						continue
					}
					at, why := sm.gate(sid, w, now)
					wake, blocked = min(wake, at), blocked || why == gateLDST
					if !asleep[sid] {
						continue
					}
					if ok, full := issuableNow(sm, sid, w, now); ok || full != (why == gateLDST) {
						t.Fatalf("duplo=%v, cycle %d: scheduler %d skipped with warp %d issuable=%v, queue-held=%v (gate %d, %d)",
							on, now, sid, s, ok, full, at, why)
					}
				}
				if sm.schedWake[sid] != wake || sm.schedBlocked[sid] != blocked {
					t.Fatalf("duplo=%v, cycle %d: scheduler %d wakes at %d (LDST-blocked %v); a full scan gives %d (%v)",
						on, now, sid, sm.schedWake[sid], sm.schedBlocked[sid], wake, blocked)
				}
				if asleep[sid] {
					skipped++
				}
			}
		}
		if g.nextCTA != g.totalCTAs || (on && sm.stats.LoadsEliminated == 0) || skipped == 0 {
			t.Fatalf("duplo=%v: ran %d of %d CTAs in %d cycles, %d loads eliminated, %d scheduler passes skipped",
				on, g.nextCTA, g.totalCTAs, now, sm.stats.LoadsEliminated, skipped)
		}
	}
}

// TestRetireRunsDueWarpsInSlotOrder: warps due in one tick retire in
// ascending slot order, the order a scan of the live warps visits them,
// whatever order their ROB heads complete in — here the reverse, which is
// the order the retire heap pops them. Slot order fixes the order of the
// LHB release FIFO.
func TestRetireRunsDueWarpsInSlotOrder(t *testing.T) {
	k, err := NewConvKernel("retire-order", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	var stats Stats
	sm := newSM(cfg, 0, newMemSystem(cfg, &stats), &gpuState{cfg: cfg})
	sm.placeCTA(k, 0, 1)
	var slots []int
	for s := range sm.warps {
		if w := &sm.warps[s]; w.active {
			// Higher slots complete earlier; seq names the slot.
			sm.robPush(w, robEntry{complete: 100 - int64(s), tracked: true, tcLoad: tcLoad{seq: uint64(s)}})
			slots = append(slots, s)
		}
	}
	if len(slots) < 2 {
		t.Fatalf("placed %d warps, want at least 2", len(slots))
	}
	sm.retire(100)
	if len(sm.lhbRelease) != len(slots) {
		t.Fatalf("%d releases for %d retired tracked loads", len(sm.lhbRelease), len(slots))
	}
	for i, e := range sm.lhbRelease {
		if e.seq != uint64(slots[i]) {
			t.Fatalf("release %d is slot %d's; want slot %d's (ascending slot order %v)", i, e.seq, slots[i], slots)
		}
	}
}

// issuableNow is the issue test written from the ISA, apart from gate:
// whether warp w's current instruction can issue at cycle now on scheduler
// sid, and whether it waits only on a full LDST queue.
func issuableNow(sm *smState, sid int, w *warpCtx, now int64) (ok, queueHeld bool) {
	in := w.prog.At(w.pc)
	switch in.Op {
	case OpMMA:
		ready := w.regReady[in.SrcA] <= now && w.regReady[in.SrcB] <= now && w.regReady[in.Dst] <= now
		return ready && sm.pbFree[sid] <= now, false
	case OpStoreD:
		in.Dst = in.SrcA // a store reads the accumulator it writes out
	}
	if w.regReady[in.Dst] > now {
		return false, false
	}
	full := len(sm.ldstBusy) >= ldstQueueDepth
	return !full, full
}

// TestNextWakeNeverInPast: a fully-stalled SM's nextWake must always be in
// the future (> now), whatever stale state it holds — the infinite-loop /
// clock-reversal guard of the event-driven dispatcher. nextWake reads the
// scheduler wakes that passes which issued nothing recorded, so the cases
// that set registers reach their state through such a pass.
func TestNextWakeNeverInPast(t *testing.T) {
	cfg := testConfig()
	var stats Stats
	mem := newMemSystem(cfg, &stats)
	k, err := NewConvKernel("wake", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	// gateAll makes every live warp's registers ready at cycle ready and
	// runs each scheduler's pass at cycle at < ready, which must issue
	// nothing.
	gateAll := func(sm *smState, ready, at int64) {
		t.Helper()
		for s := range sm.warps {
			if w := &sm.warps[s]; w.active {
				for i := range w.regReady {
					w.regReady[i] = ready
				}
			}
		}
		for sid := range sm.schedWake {
			if sm.scheduleOne(sid, at) {
				t.Fatalf("scheduler %d issued at cycle %d with every register busy until %d", sid, at, ready)
			}
		}
	}
	sm := newSM(cfg, 0, mem, &gpuState{cfg: cfg})
	sm.placeCTA(k, 0, 1)

	const now = int64(100)
	check := func(name string) {
		t.Helper()
		if w := sm.nextWake(now); w <= now {
			t.Fatalf("%s: nextWake(%d) = %d, in the past", name, now, w)
		}
	}

	// Fresh warps: placement reset every scheduler's wake to cycle 0,
	// which must clamp to now+1, not report no event.
	check("fresh CTA")

	// Registers busy until a cycle in the past (stale scoreboard): the
	// pass that found them busy recorded wakes before now.
	gateAll(sm, now-50, now-60)
	check("stale regReady")

	// Stale queue, ROB and LHB-release events, all before now, pushed
	// through the helpers that maintain ldstDue and robHeads.
	sm.ldstPush(now - 10)
	check("stale ldstBusy")
	for s := range sm.warps {
		w := &sm.warps[s]
		if w.active {
			sm.robPush(w, robEntry{complete: now - 30})
			break
		}
	}
	check("stale ROB head")
	sm.lhbRelease = append(sm.lhbRelease, lhbReleaseEvt{at: now - 1})
	check("stale lhbRelease")

	// Sanity: genuine future events are still honored (min, not clamp).
	sm2 := newSM(cfg, 1, mem, &gpuState{cfg: cfg})
	sm2.placeCTA(k, 0, 1)
	gateAll(sm2, now+400, now)
	if w := sm2.nextWake(now); w != now+400 {
		t.Fatalf("future regReady: nextWake = %d, want %d", w, now+400)
	}
	if w := sm2.nextWake(now + 1000); w != now+1001 {
		t.Fatalf("all-stale state: nextWake = %d, want clamp to %d", w, now+1001)
	}
}
