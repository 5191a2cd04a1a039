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
	event.DenseClock = false
	dense = cfg
	dense.DenseClock = true
	return event, dense
}

// diffRun simulates k under both clock modes and requires byte-identical
// results: every Stats field (including the arithmetically accounted stall
// counters) and the CTA counts. Kernel and Config are inputs, not outputs,
// so they are excluded (Config necessarily differs in DenseClock). Both
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
	schedCycles := res.Cycles * int64(cfg.SimSMs) * int64(cfg.Schedulers)
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

// TestNextWakeNeverInPast: a fully-stalled SM's nextWake must always be in
// the future (> now), whatever stale state it holds — the infinite-loop /
// clock-reversal guard of the event-driven dispatcher.
func TestNextWakeNeverInPast(t *testing.T) {
	cfg := testConfig()
	var stats Stats
	mem := newMemSystem(cfg, &stats)
	k, err := NewConvKernel("wake", testLayer)
	if err != nil {
		t.Fatal(err)
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

	// Fresh warps: loads are register-ready with an empty LDST queue — the
	// "inconsistent" branch must clamp to now+1, not report no event.
	check("fresh CTA")

	// Registers busy far in the past (stale scoreboard).
	for s := range sm.warps {
		w := &sm.warps[s]
		if !w.active {
			continue
		}
		for i := range w.regReady {
			w.regReady[i] = now - 50
		}
	}
	check("stale regReady")

	// Stale queue, ROB, LHB-release and L1-port events, all before now.
	sm.ldstBusy = append(sm.ldstBusy, now-10)
	check("stale ldstBusy")
	for s := range sm.warps {
		w := &sm.warps[s]
		if w.active {
			w.robPush(robEntry{complete: now - 30})
			break
		}
	}
	check("stale ROB head")
	sm.lhbRelease = append(sm.lhbRelease, lhbReleaseEvt{at: now - 1})
	check("stale lhbRelease")
	sm.l1Port = now - 5
	check("stale l1Port")

	// Sanity: genuine future events are still honored (min, not clamp).
	sm2 := newSM(cfg, 1, mem, &gpuState{cfg: cfg})
	sm2.placeCTA(k, 0, 1)
	for s := range sm2.warps {
		w := &sm2.warps[s]
		if !w.active {
			continue
		}
		for i := range w.regReady {
			w.regReady[i] = now + 400
		}
	}
	if w := sm2.nextWake(now); w != now+400 {
		t.Fatalf("future regReady: nextWake = %d, want %d", w, now+400)
	}
	if w := sm2.nextWake(now + 1000); w != now+1001 {
		t.Fatalf("all-stale state: nextWake = %d, want clamp to %d", w, now+1001)
	}
}
