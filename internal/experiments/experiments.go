// Package experiments reproduces every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md §3). Each
// experiment returns a report.Table so cmd/duploexp and the benchmark
// harness share one implementation.
//
// Experiments fan their independent simulations out on a bounded worker
// pool (see Runner); results are assembled in deterministic order, so a
// table rendered with Workers=8 is byte-identical to the Workers=1 serial
// output.
package experiments

import (
	"context"
	"math"
	"time"

	duplo "duplo/internal/core"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// Options scales experiment cost. DefaultOptions reproduces the shapes at
// manageable runtime; MaxCTAs 0 (-ctas 0) removes the CTA cap.
type Options struct {
	// MaxCTAs bounds simulated CTAs per kernel (0 = full grid).
	MaxCTAs int
	// SimSMs is the number of SMs simulated (memory system sliced
	// proportionally).
	SimSMs int
	// Layers restricts the layer set (nil = all of Table I).
	Layers []workload.Layer
	// Workers bounds concurrently executing simulations (0 = GOMAXPROCS;
	// 1 = the serial path).
	Workers int
	// Progress receives one line per progress message (nil = silent).
	Progress func(string)
	// Context cancels in-flight and future simulations (nil = Background).
	// A cancelled sweep still returns its table with "ERR" cells for the
	// runs that did not finish.
	Context context.Context
	// MaxCycles bounds each simulation's cycle count (sim.Config.MaxCycles;
	// 0 = the simulator's own generous default).
	MaxCycles int64
	// WallTimeout bounds each simulation's wall-clock time
	// (sim.Config.WallTimeout; 0 = none).
	WallTimeout time.Duration
	// CrashDumpDir receives watchdog/panic crash dumps
	// (sim.Config.CrashDumpDir; "" = os.TempDir()).
	CrashDumpDir string
	// Store, when non-nil, backs the in-memory singleflight cache with the
	// on-disk content-addressed result store: a memoization miss consults
	// the store before simulating, and every successful simulation is
	// persisted, so sweeps warm-start across invocations (and across the
	// clients of a duploserved daemon sharing one directory). Failed runs
	// are never persisted — the failed-run eviction semantics extend to
	// the disk tier — and traced runs bypass the store entirely, because a
	// collector must observe an actual execution.
	Store *store.Store

	// Predictor selects the calibrated analytical fast path (DESIGN.md §9):
	// PredictorOff (or the empty zero value) keeps every run cycle-sim
	// ground truth; PredictAll predicts every gate-passing cell inside the
	// calibrated envelope. Predicted results are marked
	// (sim.Result.Predicted, "~" in tables) and never persisted.
	Predictor PredictorMode
	// CalibrationPath overrides where the calibration artifact is
	// persisted and loaded ("" = <store dir>/calibration/<keyhash>.json
	// when a store is attached, else in-memory only).
	CalibrationPath string

	// Seed seeds the serving cluster experiment's arrival-process RNG
	// (internal/serving). 0 means the default seed (1); every non-zero
	// value is used as-is. The cluster table is byte-identical across
	// repeated runs and worker counts at a fixed seed.
	Seed int64

	// Faults, when non-nil, injects simulation-phase faults (panics,
	// added latency) keyed by kernel name — the runner-tier half of
	// internal/fault. Nil (the production default) adds no branches to
	// the simulate path: the seam wraps simFn once at construction, the
	// same discipline as the PR 3 tracer.
	Faults SimFaultInjector
}

// SimFaultInjector is the runner's view of a fault injector
// (*fault.Injector satisfies it). SimFault returning non-nil makes the
// wrapped simulation panic with that error (exercising the typed
// sim.PhasePanic recovery path); SimDelay stalls the simulation, or
// aborts with the context's typed error if cancellation wins the race.
type SimFaultInjector interface {
	SimFault(kernel string) error
	SimDelay(kernel string) time.Duration
}

// DefaultOptions returns the standard experiment scale, with the
// predictor off. The binaries' flags default to it (RunFlags).
func DefaultOptions() Options {
	return Options{MaxCTAs: 96, SimSMs: 4, Predictor: PredictorOff}
}

// QuickOptions returns a reduced scale for benches and smoke tests.
func QuickOptions() Options {
	return Options{MaxCTAs: 12, SimSMs: 2}
}

func (o Options) layers() []workload.Layer {
	if o.Layers != nil {
		return o.Layers
	}
	return workload.AllLayers()
}

// Config resolves the options into the sim.Config experiments run under
// (exported for duploserved, which builds per-request configs from the
// daemon's base options).
func (o Options) Config() sim.Config { return o.config() }

func (o Options) config() sim.Config {
	cfg := sim.TitanVConfig()
	if o.MaxCTAs >= 0 {
		cfg.MaxCTAs = o.MaxCTAs
	}
	if o.SimSMs > 0 {
		cfg.SimSMs = o.SimSMs
	}
	cfg.MaxCycles = o.MaxCycles
	cfg.WallTimeout = o.WallTimeout
	cfg.CrashDumpDir = o.CrashDumpDir
	return cfg
}

// LHBPoints is the Fig. 9/10 sweep: four sizes plus the oracle.
var LHBPoints = []struct {
	Name string
	Cfg  duplo.LHBConfig
}{
	{"256-entry", duplo.LHBConfig{Entries: 256, Ways: 1}},
	{"512-entry", duplo.LHBConfig{Entries: 512, Ways: 1}},
	{"1024-entry", duplo.LHBConfig{Entries: 1024, Ways: 1}},
	{"2048-entry", duplo.LHBConfig{Entries: 2048, Ways: 1}},
	{"Oracle", duplo.LHBConfig{Oracle: true}},
}

// DefaultLHB is the paper's chosen design point (§V-B).
var DefaultLHB = duplo.LHBConfig{Entries: 1024, Ways: 1}

// gmeanImprovement aggregates fractional improvements geometrically, the
// way the paper's "Gmean" bars do.
func gmeanImprovement(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(1 + x)
	}
	return math.Exp(s/float64(len(v))) - 1
}
