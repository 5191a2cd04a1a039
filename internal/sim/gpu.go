package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	duplo "duplo/internal/core"
)

// Result is the outcome of one kernel simulation.
type Result struct {
	Stats
	// SimulatedCTAs is how many CTAs actually ran (MaxCTAs cap).
	SimulatedCTAs int
	// TotalCTAs is the full grid size.
	TotalCTAs int
	Kernel    *Kernel
	Config    Config

	// Predicted marks a Result synthesized by the calibrated analytical
	// model (internal/predictor) instead of simulated; PredictedErr then
	// carries the calibration's expected relative error (the fitted
	// family's MAPE against cycle-sim ground truth). The simulator never
	// sets these, and predicted results are never persisted to the
	// on-disk store — only ground truth is content-addressable.
	Predicted    bool
	PredictedErr float64
}

// gpuState drives the whole-chip simulation: CTA dispatch and the global
// cycle loop.
type gpuState struct {
	cfg       Config
	kernel    *Kernel
	mem       *memSystem
	sms       []*smState
	nextCTA   int
	totalCTAs int
	launchSeq int64
	ctasPerSM int

	// guard is the hardening state of this run: cancellation, cycle/wall
	// bounds, and the forward-progress watchdog.
	guard runGuard
	// progress counts ROB pops (retireWarp bumps it once per retired
	// instruction).
	progress int64
	// now mirrors the loop's current cycle so crash dumps written from a
	// panic recovery know where the clock stood.
	now int64
	// smTicks counts executed SM ticks; with per-SM skipping it stays below
	// loop iterations × SMs (TestEventClockSkips).
	smTicks int64
}

// runGuard bundles the per-run hardening state consulted once per loop
// iteration (checkGuard).
type runGuard struct {
	ctx       context.Context
	done      <-chan struct{} // ctx.Done(), nil when the context can't cancel
	maxCycles int64
	window    int64 // watchdog window in cycles; 0 = disabled
	ticks     int64 // loop iterations, for the masked cancellation poll

	lastProgress   int64 // g.progress at the last observed progress
	lastProgressAt int64 // cycle of the last observed progress
}

// cancelPollMask: cancellation is polled every 1024 loop iterations — a
// single masked branch per tick, bounded staleness either way (ticks are
// the unit of forward motion on both the dense and the event-driven
// clock).
const cancelPollMask = 1<<10 - 1

// checkGuard runs the per-iteration guards after the tick at `now`:
// cancellation/deadline, the cycle bound, and the forward-progress
// watchdog. issued is the chip-wide issue count of the tick; retirement
// progress is read from g.progress. Returns the *SimError to abort with,
// or nil.
func (g *gpuState) checkGuard(now int64, issued int) error {
	gd := &g.guard
	gd.ticks++
	if gd.done != nil && gd.ticks&cancelPollMask == 0 {
		select {
		case <-gd.done:
			return g.cancelError(now)
		default:
		}
	}
	if now > gd.maxCycles {
		return &SimError{
			Phase: PhaseCycleLimit, Cycle: now,
			Reason: fmt.Sprintf("exceeded %d simulated cycles", gd.maxCycles),
		}
	}
	if issued > 0 || g.progress != gd.lastProgress {
		gd.lastProgress = g.progress
		gd.lastProgressAt = now
	} else if gd.window > 0 && now-gd.lastProgressAt >= gd.window {
		return g.watchdogFire(now)
	}
	return nil
}

// cancelError converts the guard context's error into a *SimError,
// distinguishing deadline expiry from cancellation.
func (g *gpuState) cancelError(now int64) error {
	err := g.guard.ctx.Err()
	phase, reason := PhaseCancelled, "run cancelled"
	if errors.Is(err, context.DeadlineExceeded) {
		phase, reason = PhaseDeadline, "wall-clock deadline exceeded"
	}
	return &SimError{Phase: phase, Cycle: now, Reason: reason, Err: err}
}

// watchdogFire builds the livelock diagnosis and writes the crash dump.
func (g *gpuState) watchdogFire(now int64) error {
	se := &SimError{
		Phase: PhaseWatchdog, Cycle: now,
		Reason: fmt.Sprintf(
			"no forward progress for %d cycles (livelock?): no instruction issued and no ROB entry retired since cycle %d",
			g.guard.window, g.guard.lastProgressAt),
	}
	g.attachDump(se)
	return se
}

// attachDump writes the crash dump for se and records its path (best
// effort: a dump-write failure is folded into the reason, never masks the
// original error).
func (g *gpuState) attachDump(se *SimError) {
	dump, err := writeCrashDump(g, se)
	if err != nil {
		se.Reason += "; crash dump failed: " + err.Error()
		return
	}
	se.Dump = dump
}

// containPanic converts a recovered panic value into a *SimError with a
// crash dump. A *SimError panic value — the structured program-decode
// error warpProgram.At raises — passes through with its phase intact.
func (g *gpuState) containPanic(r any, stack []byte) error {
	se, ok := r.(*SimError)
	if !ok {
		se = &SimError{Phase: PhasePanic, Reason: fmt.Sprintf("panic: %v", r)}
		if err, isErr := r.(error); isErr {
			se.Err = err
		}
	}
	se.Cycle = g.now
	se.stack = stack
	g.attachDump(se)
	return se
}

// ctaDone is called by an SM when a resident CTA finishes; the dispatcher
// immediately backfills (a CTA scheduler assigning the next CTA to the freed
// slot).
func (g *gpuState) ctaDone(sm *smState, now int64) {
	g.dispatchTo(sm)
}

func (g *gpuState) dispatchTo(sm *smState) {
	for sm.resident < g.ctasPerSM && g.nextCTA < g.totalCTAs {
		cta := g.nextCTA
		g.nextCTA++
		g.launchSeq++
		sm.placeCTA(g.kernel, cta, g.launchSeq)
	}
}

// maxSimCycles bounds runaway simulations (deadlock detection).
const maxSimCycles = int64(4) << 30

// Run simulates the kernel on the configured GPU and returns merged
// statistics. With cfg.Duplo set, each SM gets a detection unit programmed
// with the kernel's convolution information (no-op for plain GEMM kernels,
// whose loads all bypass).
//
// Run is safe for concurrent use: all simulation state (gpuState, smState,
// memSystem, the per-SM detection units) is allocated per call, neither sim
// nor internal/core holds package-level mutable state, and the Kernel is
// only read. Callers may share one *Kernel across concurrent Runs but must
// not mutate it (Name, Variant) while any Run is in flight. Run is also
// deterministic: the same (cfg, kernel) pair always produces the same
// Result — the cycle loop iterates slices only, never map order — which is
// what lets the parallel experiment engine promise byte-identical tables at
// any worker count.
//
// Clocking: by default each SM keeps its own clock. An SM whose tick
// issues nothing sleeps until its nextWake cycle, and the chip clock jumps
// to the earliest wake over all SMs, so a cycle ticks only the SMs that
// can act there. A sleeping SM's skipped ticks are accounted
// arithmetically (stall counters and one trace span) when it next ticks,
// at run end, and before a crash dump. Inside a tick, each warp scheduler
// whose last pass issued nothing keeps its own wake, the earliest cycle
// one of its warps can issue, and until then stalls without a pass. Every
// Stats field (including IssueStallCycles / LDSTStallCycles) is
// byte-identical to the dense loop that ticks every SM and runs every
// scheduler on every cycle, which this package's tests keep as their
// oracle (asserted by TestClockModesByteIdentical; see DESIGN.md §3
// "Clocking").
//
// Observability: with cfg.Tracer set, every SM emits pipeline events
// (issues, stalls, skipped spans, LHB hits/releases, memory-level
// services, MSHR merges) into the tracer as it simulates. Tracing never
// changes the Result (asserted by TestTracingDoesNotPerturb) and a nil
// Tracer costs one pointer check per site; see internal/trace and
// DESIGN.md §4.
//
// Hardening: Run is RunContext with a background context; both are
// bounded (Config.MaxCycles, Config.WallTimeout), interruptible, watched
// for forward progress (max(DefaultWatchdogWindow, 8*retireDelay) cycles
// without an issue or a retirement), and contain panics from
// the cycle loop — failures come back as a *SimError, with a crash dump
// on watchdog fires and contained panics (DESIGN.md §5 "Robustness").
// The hardening is strictly observational: a healthy run's Result is
// byte-identical with or without a cancellable context.
func Run(cfg Config, k *Kernel) (Result, error) {
	return RunContext(context.Background(), cfg, k)
}

// testFaultInjection, when non-nil, is invoked on the fully-built gpuState
// after initial dispatch and before the cycle loop — the seam
// harden_test.go uses to inject livelocks and panics. It is nil outside
// tests and is not synchronized: a test that sets it owns every Run in
// flight.
var testFaultInjection func(*gpuState)

// RunContext is Run with cancellation: the cycle loop polls ctx cheaply
// (every cancelPollMask+1 ticks) and returns a *SimError (PhaseCancelled
// or PhaseDeadline) when it fires. cfg.WallTimeout, when set, is applied
// as a deadline on top of ctx. Every run builds its own state.
func RunContext(ctx context.Context, cfg Config, k *Kernel) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.WallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.WallTimeout)
		defer cancel()
	}
	var merged Stats
	mem := newMemSystem(cfg, &merged)
	g := &gpuState{
		cfg:       cfg,
		kernel:    k,
		mem:       mem,
		totalCTAs: k.TotalCTAs(),
		ctasPerSM: k.CTAsPerSM(),
	}
	if cfg.MaxCTAs > 0 && g.totalCTAs > cfg.MaxCTAs {
		g.totalCTAs = cfg.MaxCTAs
	}
	g.sms = make([]*smState, cfg.SimSMs)
	for i := range g.sms {
		sm := newSM(cfg, i, mem, g)
		if cfg.Duplo {
			du, err := duplo.NewDetectionUnit(cfg.DetectCfg, MaxWarpsPerSM, 32)
			if err != nil {
				return Result{}, err
			}
			if k.Conv != nil {
				if err := du.Program(*k.Conv, k.Layout); err != nil {
					return Result{}, err
				}
			}
			sm.du = du
		}
		g.sms[i] = sm
	}
	// Initial dispatch.
	for _, sm := range g.sms {
		g.dispatchTo(sm)
	}
	g.guard = runGuard{ctx: ctx, done: ctx.Done(), maxCycles: cfg.maxCycles(), window: cfg.watchdogCycles()}
	if hook := testFaultInjection; hook != nil {
		hook(g)
	}
	if g.guard.done != nil {
		// Fail fast when the context is already dead (a cancelled sweep
		// spawning follow-up runs should not simulate 1024 ticks each).
		select {
		case <-g.guard.done:
			return Result{}, g.cancelError(0)
		default:
		}
	}

	now, err := g.runLoops()
	if err != nil {
		return Result{}, err
	}

	for _, sm := range g.sms {
		if sm.du != nil {
			sm.stats.LHB = sm.du.LHBStats()
			sm.stats.RenameCount = int64(sm.du.Renames().Renames)
			sm.stats.AllocCount = int64(sm.du.Renames().Allocs)
		}
		merged.Add(sm.stats)
	}
	merged.Cycles = now
	return Result{
		Stats:         merged,
		SimulatedCTAs: g.totalCTAs,
		TotalCTAs:     k.TotalCTAs(),
		Kernel:        k,
		Config:        cfg,
	}, nil
}

// runLoops is the cycle loop, behind one panic barrier: any panic in a
// tick is contained into a *SimError with a crash dump.
func (g *gpuState) runLoops() (now int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = g.containPanic(r, debug.Stack())
		}
	}()
	for _, sm := range g.sms {
		sm.wake, sm.lastTick = 0, -1
	}
	for {
		g.now = now
		busy := false
		issued := 0
		next := farFuture
		// SMs share state only through memSystem and the CTA dispatcher,
		// and an SM touches either only when it ticks, so ticking the
		// awake SMs in ascending order keeps memSystem's ordering
		// contract: a sleeping SM's tick would have changed nothing.
		for _, sm := range g.sms {
			if sm.wake <= now {
				sm.settle(now)
				iss := sm.tick(now)
				g.smTicks++
				issued += iss
				sm.wake = now + 1
				if iss == 0 && !g.cfg.denseClock {
					sm.wake = sm.nextWake(now)
				}
			}
			if sm.busy() {
				busy = true
			}
			if sm.wake < next {
				next = sm.wake
			}
		}
		if !busy && g.nextCTA >= g.totalCTAs {
			break
		}
		if next >= farFuture {
			// Busy, yet no SM waits on any event: a livelock. Step the
			// chip clock one cycle at a time so the watchdog sees each.
			next = now + 1
		}
		now = next
		if err := g.checkGuard(now, issued); err != nil {
			return 0, err
		}
	}
	// The dense clock ticks every SM on the final cycle too: settle the
	// sleeping ones through it.
	for _, sm := range g.sms {
		sm.settle(now + 1)
	}
	return now, nil
}

// Speedup returns (base cycles / duplo cycles) - 1 as the fractional
// performance improvement (the Fig. 9 metric).
func Speedup(base, duplo Result) float64 {
	if duplo.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles)/float64(duplo.Cycles) - 1
}
