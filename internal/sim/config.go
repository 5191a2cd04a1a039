// Package sim is the cycle-level GPU timing simulator the reproduction runs
// on, standing in for GPGPU-Sim with the tensor-core model of Raihan et
// al. [32] (see DESIGN.md §1 for the substitution argument).
//
// The model captures the mechanisms Duplo's evaluation depends on:
//
//   - SMs with four warp schedulers running greedy-then-oldest (GTO),
//     per-warp scoreboards and in-order issue/retire;
//   - tensor-core pipelines executing warp-granular 16x16x16 MMA steps;
//   - an LDST unit that splits warp-level wmma.load/store instructions into
//     whole 128-byte line requests, with L1 port serialization;
//   - per-SM L1 caches that merge misses to one line and have no MSHR
//     capacity limit (only the LDST queue bounds the misses in flight): a
//     line's pending fill rides in its L1 way, and an MSHR table keeps
//     only the lines evicted before their fill landed. Behind them, a
//     shared L2 slice whose hits cost a fixed L2LatencyCycles with no
//     bandwidth term, and a bandwidth-limited DRAM. Fills are whole
//     lines: no sector fills are modeled;
//   - the Duplo detection unit (internal/core) attached to the LDST unit,
//     looked up in parallel with L1 (§IV of the paper).
//
// Timing is modeled with functional tag arrays plus latency/throughput
// queues (GPGPU-Sim's performance-model style), not RTL. Absolute cycle
// counts are not the target; baseline-vs-Duplo deltas are.
package sim

import (
	"fmt"
	"math"
	"time"

	duplo "duplo/internal/core"
	"duplo/internal/trace"
)

// The simulated machine: Table III's Titan V and the timing parameters
// beside it. Every run simulates this one machine; a model change edits a
// constant here.
const (
	NumSMs        = 80    // physical SM count the results are scaled to
	MaxCTAsPerSM  = 32    // resident CTAs per SM
	MaxWarpsPerSM = 64    // warp slots per SM
	Schedulers    = 4     // warp schedulers per SM, GTO policy
	TensorCores   = 8     // per SM (2 per processing block)
	RegFileKB     = 256   // register file per SM
	L2Ways        = 24    // 24 ways, 32 sets (per Table III / [11])
	DRAMBandwidth = 652.8 // GB/s

	l1LatencyCycles   = 28  // §V-D
	L2LatencyCycles   = 120 // Table III
	dramLatencyCycles = 220 // access latency before transfer
	lineBytes         = 128 // every request and fill is a whole line

	// MMA pipeline: a warp-level 16x16x16 MMA step occupies its processing
	// block for MMAInitiation cycles and completes after mmaLatency.
	mmaLatency    = 16
	MMAInitiation = 4
	// storeLatency: cycles for a store to clear the LDST queue entry.
	storeLatency = 4
	// retireDelay models the register reuse window: the interval between a
	// tensor-core-load retiring and its destination register group being
	// reclaimed by the warp-register renaming pool of [15], at which point
	// the LHB entry must be released (§IV-B/§V-C). It is a calibrated
	// constant (see EXPERIMENTS.md): it sets the LHB hit-rate ceiling the
	// same way the paper's retire-eviction does.
	retireDelay = 8000
	// ldstQueueDepth is the number of outstanding memory instructions per
	// SM before issue back-pressure (LDST stalls, §V-B).
	ldstQueueDepth = 24
)

// Config describes one run on the simulated GPU: the clock, the cache
// sizes §V-D scales, the simulated slice, the run bounds and the Duplo
// detection unit. TitanVConfig returns Table III's values.
type Config struct {
	// ClockMHz is Table III's 1200 MHz. It is a field, not a constant,
	// only because perfbench reads it from Options.Config (ROADMAP item 10).
	ClockMHz int
	L1KB     int // 128 KB unified L1 per SM
	L2KB     int // 4.5 MB shared

	// --- Simulation scaling ---

	// SimSMs is the number of SMs actually simulated; the memory system
	// (L2 capacity, L2/DRAM bandwidth) is sliced proportionally, and
	// simulation cost drops by NumSMs/SimSMs. The slice moves results:
	// ResNet/C6's whole grid gains -0.6%, +6.6%, +6.0%, +20.5% and +25.5%
	// on 2, 4, 8, 16 and 80 SMs (ROADMAP item 1).
	SimSMs int
	// MaxCTAs bounds the number of CTAs simulated (0 = whole grid). A
	// prefix moves results too: capped at 64 CTAs on 4 SMs, ResNet/C2
	// gains +37.4% against +31.0% for its whole grid (ROADMAP item 1,
	// DESIGN.md §3).
	MaxCTAs int

	// --- Hardening: run bounds and diagnostics ---

	// MaxCycles bounds the simulated clock: a run reaching this many cycles
	// aborts with a *SimError (PhaseCycleLimit) instead of running on. 0
	// selects the built-in runaway bound; negative is invalid.
	MaxCycles int64
	// WallTimeout bounds a run's wall-clock time: Run/RunContext derive a
	// deadline context from it, and the loop returns a *SimError
	// (PhaseDeadline) when it expires. 0 = no bound; negative is invalid.
	WallTimeout time.Duration
	// CrashDumpDir is the directory watchdog/panic crash dumps are written
	// to ("" = os.TempDir()); see dump.go for the format.
	CrashDumpDir string

	// Duplo enables the detection unit; DetectCfg configures it.
	Duplo     bool
	DetectCfg duplo.DetectionUnitConfig

	// Tracer, when non-nil, receives pipeline events (warp issues,
	// stalls, LHB hits, memory-level services, MSHR merges, LHB entry
	// releases) from every SM — the observability subsystem of
	// internal/trace. Tracing is strictly observational: the Result is
	// byte-identical with any Tracer, including nil, and a nil Tracer
	// costs one pointer comparison per emit site (the default hot path
	// does no tracing work).
	Tracer trace.Tracer

	// denseClock ticks every SM, and runs every warp scheduler, on every
	// cycle instead of the default per-SM clock, which ticks an SM (and
	// runs a scheduler) only on cycles where it can act and accounts its
	// skipped cycles arithmetically. Results are byte-identical either way
	// (the differential tests in clock_test.go are the gate); the dense
	// loop is their oracle and the baseline for the clocking benchmarks,
	// so only this package's tests set it.
	denseClock bool
	// watchdogWindow is the forward-progress watchdog's window in cycles:
	// when no instruction issues and no ROB entry retires for this many
	// consecutive cycles, the run aborts with a livelock diagnosis and a
	// crash dump instead of spinning forever. 0 selects the default —
	// max(DefaultWatchdogWindow, 8*retireDelay), far above any legitimate
	// no-progress gap (the longest is the retireDelay between a load
	// retiring and its LHB release) — and negative disables the watchdog.
	// Only this package's fault-injection tests set it: a window under
	// ~8*retireDelay can fire on a healthy but memory-bound run.
	watchdogWindow int64
}

// TitanVConfig returns the baseline GPU model of Table III.
func TitanVConfig() Config {
	return Config{
		ClockMHz: 1200,
		L1KB:     128,
		L2KB:     4608, // 4.5 MB

		SimSMs:  4,
		MaxCTAs: 384,

		Duplo:     false,
		DetectCfg: duplo.DefaultDetectionUnitConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SimSMs <= 0 || c.SimSMs > NumSMs:
		return fmt.Errorf("sim: SimSMs %d out of range (1..%d)", c.SimSMs, NumSMs)
	case c.L1KB <= 0 || c.L2KB <= 0:
		return fmt.Errorf("sim: cache sizes must be positive")
	case cacheLines(c.L1KB) > maxCacheLines || cacheLines(c.L2KB) > maxCacheLines:
		return fmt.Errorf("sim: L1 %d KB / L2 %d KB in %dB lines exceed %d lines per cache",
			c.L1KB, c.L2KB, lineBytes, maxCacheLines)
	case c.MaxCycles < 0:
		return fmt.Errorf("sim: MaxCycles %d must be >= 0 (0 = built-in bound)", c.MaxCycles)
	case c.WallTimeout < 0:
		return fmt.Errorf("sim: WallTimeout %v must be >= 0 (0 = none)", c.WallTimeout)
	}
	return nil
}

// maxCacheLines bounds the lines of each cache a valid Config describes,
// so that building its tag arrays can neither overflow nor exhaust memory:
// 128 MB of 128-byte lines, 7x the largest cache any experiment builds
// (§V-D's 4x L2 at full scale, 147,456 lines).
const maxCacheLines = 1 << 20

// cacheLines is the line count of a kb-kilobyte cache, saturating where
// kb<<10 would overflow.
func cacheLines(kb int) int {
	if kb > math.MaxInt>>10 {
		return math.MaxInt
	}
	return kb << 10 / lineBytes
}

// DefaultWatchdogWindow is the floor of the resolved forward-progress
// window when Config.watchdogWindow is 0 (~1M cycles: two orders of
// magnitude above the longest legitimate no-progress gap, the retireDelay
// release lag).
const DefaultWatchdogWindow = int64(1) << 20

// watchdogCycles resolves Config.watchdogWindow: 0 selects
// max(DefaultWatchdogWindow, 8*retireDelay); negative disables (returns 0).
func (c Config) watchdogCycles() int64 {
	w := c.watchdogWindow
	if w == 0 {
		w = max(DefaultWatchdogWindow, 8*retireDelay)
	}
	if w < 0 {
		return 0
	}
	return w
}

// maxCycles resolves Config.MaxCycles: 0 selects the built-in runaway
// bound.
func (c Config) maxCycles() int64 {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	return maxSimCycles
}

// DRAMBytesPerCycle returns the whole-GPU DRAM bandwidth in bytes/cycle.
func (c Config) DRAMBytesPerCycle() float64 {
	bw := DRAMBandwidth // a float64 variable, so bw*1e9 rounds as float64 arithmetic does
	return bw * 1e9 / (float64(c.ClockMHz) * 1e6)
}

// SliceScale is the fraction of the chip being simulated.
func (c Config) SliceScale() float64 { return float64(c.SimSMs) / NumSMs }

// TraceMeta describes this configuration to a trace.Collector: SM count,
// the skipped-span stall weight, and the slice-scaled DRAM bandwidth the
// exporters normalize against. interval <= 0 selects trace.DefaultInterval.
func (c Config) TraceMeta(interval int64) trace.Meta {
	return trace.Meta{
		SMs:               c.SimSMs,
		Schedulers:        Schedulers,
		Interval:          interval,
		LineBytes:         lineBytes,
		DRAMBytesPerCycle: c.DRAMBytesPerCycle() * c.SliceScale(),
	}
}
