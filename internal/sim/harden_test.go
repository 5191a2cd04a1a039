package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"duplo/internal/trace"
)

// This file validates the hardening layer (DESIGN.md §5 "Robustness"):
// injected livelocks must trip the forward-progress watchdog within one
// window on both clocks, cancellation/deadlines/cycle bounds must abort
// with the right structured phase, and panics anywhere in the cycle loop
// must come back as errors with readable crash dumps — never as a hung or
// dead process.

// setInjection installs a testFaultInjection hook for the duration of the
// test. The hook is a package global, so tests using it must not run in
// parallel with each other.
func setInjection(t *testing.T, fn func(*gpuState)) {
	t.Helper()
	testFaultInjection = fn
	t.Cleanup(func() { testFaultInjection = nil })
}

// injectStuckWarps gates every active warp's scoreboard at farFuture: no
// instruction can ever issue, nothing is in flight to retire, and every
// wake estimate is farFuture — the canonical livelock.
func injectStuckWarps(g *gpuState) {
	for _, sm := range g.sms {
		for s := range sm.warps {
			w := &sm.warps[s]
			if !w.active {
				continue
			}
			for i := range w.regReady {
				w.regReady[i] = farFuture
			}
		}
	}
}

// injectFullLDST fills the listed SMs' LDST queues with entries that never
// drain: memory instructions stay back-pressured forever. With a subset of
// SMs the rest of the chip keeps running until the grid needs the stuck
// SMs' CTAs.
func injectFullLDST(g *gpuState, smIdx ...int) {
	for _, i := range smIdx {
		sm := g.sms[i]
		for len(sm.ldstBusy) < sm.cfg.LDSTQueueDepth {
			sm.ldstBusy = append(sm.ldstBusy, farFuture)
		}
	}
}

// injectBadPC corrupts one active warp's program counter on SM 0 so the
// next decode hits warpProgram.At(-1) — the structured *SimError panic.
func injectBadPC(g *gpuState) {
	sm := g.sms[0]
	for s := range sm.warps {
		w := &sm.warps[s]
		if w.active {
			w.pc = -1
			w.curOK = false
			return
		}
	}
}

// injectNilProg nil-s one active warp's program on SM 0: the next decode
// dereferences it — a raw runtime panic, not a *SimError.
func injectNilProg(g *gpuState) {
	sm := g.sms[0]
	for s := range sm.warps {
		w := &sm.warps[s]
		if w.active {
			w.prog = nil
			return
		}
	}
}

func hardenKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewConvKernel("harden", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// asSimError asserts err is a *SimError in the given phase.
func asSimError(t *testing.T, err error, phase string) *SimError {
	t.Helper()
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("want *SimError, got %T: %v", err, err)
	}
	if se.Phase != phase {
		t.Fatalf("phase = %q, want %q (err: %v)", se.Phase, phase, err)
	}
	return se
}

// readDump asserts the error references a readable crash dump and returns
// its contents.
func readDump(t *testing.T, se *SimError) string {
	t.Helper()
	if se.Dump == "" {
		t.Fatalf("no crash dump attached: %v", se)
	}
	data, err := os.ReadFile(se.Dump)
	if err != nil {
		t.Fatalf("crash dump unreadable: %v", err)
	}
	if !strings.Contains(se.Error(), "crash dump: ") {
		t.Errorf("error text does not reference the dump: %q", se.Error())
	}
	return string(data)
}

// dumpSMStats extracts each SM's (instr, issueStall) counters from a crash
// dump, in SM order.
func dumpSMStats(t *testing.T, dump string) [][2]int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^SM \d+: .*\n  stats: instr=(\d+) .* issueStall=(\d+) `)
	var out [][2]int64
	for _, m := range re.FindAllStringSubmatch(dump, -1) {
		instr, _ := strconv.ParseInt(m[1], 10, 64)
		stall, _ := strconv.ParseInt(m[2], 10, 64)
		out = append(out, [2]int64{instr, stall})
	}
	return out
}

// TestInjectedLivelockWatchdog is the acceptance matrix: an injected
// livelock must fail within one watchdog window — with a *SimError and a
// readable dump, never a hang — on both clocks, for both livelock shapes
// (stuck scoreboards and an un-drainable LDST queue), whole-chip and
// partial (SM 1 stuck while SM 0 runs its CTAs to completion). The dump's
// counters must be settled to the fire cycle: every scheduler of every SM
// issued or stalled on each cycle before it.
func TestInjectedLivelockWatchdog(t *testing.T) {
	k := hardenKernel(t)
	const window = 2000
	injections := []struct {
		name    string
		fn      func(*gpuState)
		partial bool
	}{
		{"stuck-warps", injectStuckWarps, false},
		{"full-ldst", func(g *gpuState) { injectFullLDST(g, 0, 1) }, false},
		{"partial-full-ldst", func(g *gpuState) { injectFullLDST(g, 1) }, true},
	}
	for _, dense := range []bool{false, true} {
		for _, inj := range injections {
			name := fmt.Sprintf("dense=%v/%s", dense, inj.name)
			t.Run(name, func(t *testing.T) {
				cfg := testConfig()
				cfg.DenseClock = dense
				cfg.WatchdogWindow = window
				cfg.CrashDumpDir = t.TempDir()
				setInjection(t, inj.fn)
				_, err := Run(cfg, k)
				se := asSimError(t, err, PhaseWatchdog)
				if !strings.Contains(se.Reason, "no forward progress") {
					t.Errorf("reason %q lacks the livelock diagnosis", se.Reason)
				}
				dump := readDump(t, se)
				for _, want := range []string{"duplo crash dump", "phase:  watchdog", "SM 0:", "SM 1:", "warp"} {
					if !strings.Contains(dump, want) {
						t.Errorf("dump lacks %q", want)
					}
				}
				// The fire cycle is one window past the last progress (cycle
				// 0 when nothing ever issues), plus at most one tick of slack.
				m := regexp.MustCompile(`lastProgressAt=(\d+)`).FindStringSubmatch(dump)
				if m == nil {
					t.Fatal("dump lacks lastProgressAt")
				}
				last, _ := strconv.ParseInt(m[1], 10, 64)
				if inj.partial != (last > 0) {
					t.Errorf("last progress at cycle %d, want progress only when SM 0 runs", last)
				}
				if d := se.Cycle - last; d < window || d > window+1 {
					t.Errorf("watchdog fired at cycle %d, %d after the last progress, want ~%d", se.Cycle, d, window)
				}
				sms := dumpSMStats(t, dump)
				if len(sms) != cfg.SimSMs {
					t.Fatalf("dump shows stats for %d SMs, want %d", len(sms), cfg.SimSMs)
				}
				for i, st := range sms {
					if want := int64(cfg.Schedulers) * se.Cycle; st[0]+st[1] != want {
						t.Errorf("SM %d: instr %d + issueStall %d != %d schedulers x %d cycles",
							i, st[0], st[1], cfg.Schedulers, se.Cycle)
					}
				}
			})
		}
	}
}

// TestRunContextCancel: cancelling the context aborts livelocked runs
// (watchdog disabled to prove the cancel path alone ends them) and each
// error unwraps to context.Canceled. workers is the number of concurrent
// RunContext calls on one kernel that share the cancelled context.
func TestRunContextCancel(t *testing.T) {
	k := hardenKernel(t)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.WatchdogWindow = -1 // disabled: only the cancel can end these runs
			setInjection(t, injectStuckWarps)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = RunContext(ctx, cfg, k)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				se := asSimError(t, err, PhaseCancelled)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("run %d: err does not unwrap to context.Canceled: %v", i, err)
				}
				if se.Cycle == 0 {
					t.Errorf("run %d: cancel observed at cycle 0: poll never ran", i)
				}
			}
		})
	}
}

// TestRunContextPreCancelled: a dead context fails fast, before any tick.
func TestRunContextPreCancelled(t *testing.T) {
	k := hardenKernel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, testConfig(), k)
	se := asSimError(t, err, PhaseCancelled)
	if se.Cycle != 0 {
		t.Errorf("fail-fast at cycle %d, want 0", se.Cycle)
	}
}

// TestWallTimeout: Config.WallTimeout alone (background context) bounds a
// livelocked run and reports PhaseDeadline.
func TestWallTimeout(t *testing.T) {
	k := hardenKernel(t)
	cfg := testConfig()
	cfg.WatchdogWindow = -1
	cfg.WallTimeout = 20 * time.Millisecond
	setInjection(t, injectStuckWarps)
	_, err := Run(cfg, k)
	asSimError(t, err, PhaseDeadline)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err does not unwrap to DeadlineExceeded: %v", err)
	}
}

// TestMaxCycles: the cycle bound aborts a healthy run on both clocks.
func TestMaxCycles(t *testing.T) {
	k := hardenKernel(t)
	for _, dense := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			cfg := testConfig()
			cfg.DenseClock = dense
			cfg.MaxCycles = 1000
			_, err := Run(cfg, k)
			se := asSimError(t, err, PhaseCycleLimit)
			if se.Cycle <= 1000 {
				t.Errorf("fired at cycle %d, want > MaxCycles", se.Cycle)
			}
		})
	}
}

// TestPanicContainment: corruptions that panic inside the cycle loop —
// both the structured *SimError decode panic and a raw nil dereference —
// come back as errors with dumps.
func TestPanicContainment(t *testing.T) {
	k := hardenKernel(t)
	cases := []struct {
		name  string
		fn    func(*gpuState)
		phase string
		want  string
	}{
		{"bad-pc", injectBadPC, PhaseProgram, "out of range"},
		{"nil-prog", injectNilProg, PhasePanic, "panic:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.CrashDumpDir = t.TempDir()
			setInjection(t, tc.fn)
			_, err := Run(cfg, k)
			se := asSimError(t, err, tc.phase)
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q lacks %q", err.Error(), tc.want)
			}
			dump := readDump(t, se)
			if !strings.Contains(dump, "panic stack:") {
				t.Error("dump lacks the panic stack section")
			}
		})
	}
}

// TestCrashDumpContainsTraceTail: with a collector attached and only part
// of the chip stuck, the dump carries the healthy SMs' trace-ring tails —
// the last thing the pipeline did before the freeze.
func TestCrashDumpContainsTraceTail(t *testing.T) {
	k := hardenKernel(t)
	cfg := testConfig()
	cfg.WatchdogWindow = 2000
	cfg.CrashDumpDir = t.TempDir()
	col := trace.NewCollector(cfg.TraceMeta(1000))
	cfg.Tracer = col
	// Only SM 1 is stuck: SM 0 runs (emitting events) until the grid is
	// blocked on SM 1's CTAs, then the watchdog fires.
	setInjection(t, func(g *gpuState) { injectFullLDST(g, 1) })
	_, err := Run(cfg, k)
	se := asSimError(t, err, PhaseWatchdog)
	dump := readDump(t, se)
	if !strings.Contains(dump, "trace ring tail, SM 0") {
		t.Errorf("dump lacks SM 0's trace tail:\n%s", dump)
	}
	if !strings.Contains(dump, "ldst=24/24") {
		t.Errorf("dump does not show SM 1's full LDST queue")
	}
}

// TestSimErrorUnwrap pins the error-chain contract the CLIs rely on.
func TestSimErrorUnwrap(t *testing.T) {
	inner := errors.New("inner")
	se := &SimError{Phase: PhaseCancelled, Cycle: 7, Reason: "r", Dump: "/tmp/d", Err: inner}
	if !errors.Is(se, inner) {
		t.Error("Unwrap lost the inner error")
	}
	for _, want := range []string{"cancelled", "cycle 7", "crash dump: /tmp/d"} {
		if !strings.Contains(se.Error(), want) {
			t.Errorf("Error() %q lacks %q", se.Error(), want)
		}
	}
}

// TestHardenedRunByteIdentical: the full guard stack at healthy settings is
// invisible — byte-identical Stats across clocks and Duplo on/off.
func TestHardenedRunByteIdentical(t *testing.T) {
	k := hardenKernel(t)
	for _, dense := range []bool{false, true} {
		for _, dup := range []bool{false, true} {
			name := fmt.Sprintf("dense=%v/duplo=%v", dense, dup)
			t.Run(name, func(t *testing.T) {
				cfg := testConfig()
				cfg.DenseClock = dense
				cfg.Duplo = dup
				plain, err := Run(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				hcfg := cfg
				hcfg.WatchdogWindow = DefaultWatchdogWindow
				hcfg.MaxCycles = maxSimCycles
				hcfg.WallTimeout = time.Hour
				hcfg.CrashDumpDir = t.TempDir()
				hard, err := RunContext(ctx, hcfg, k)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Stats != hard.Stats {
					t.Errorf("hardened run diverged\nplain: %+v\nhard:  %+v", plain.Stats, hard.Stats)
				}
			})
		}
	}
}
