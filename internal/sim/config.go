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
//   - per-SM L1 caches whose MSHR table merges misses to one line and has
//     no capacity limit (only the LDST queue bounds the misses in flight),
//     a shared L2 slice whose hits cost a fixed L2LatencyCycles with no
//     bandwidth term, and a bandwidth-limited DRAM behind it. Fills are
//     whole lines: SectorBytes is validated but not modeled;
//   - the Duplo detection unit (internal/core) attached to the LDST unit,
//     looked up in parallel with L1 (§IV of the paper).
//
// Timing is modeled with functional tag arrays plus latency/throughput
// queues (GPGPU-Sim's performance-model style), not RTL. Absolute cycle
// counts are not the target; baseline-vs-Duplo deltas are.
package sim

import (
	"fmt"
	"time"

	duplo "duplo/internal/core"
	"duplo/internal/trace"
)

// Config describes the simulated GPU. Defaults follow Table III (NVIDIA
// Titan V-like).
type Config struct {
	// --- Table III parameters ---

	NumSMs        int     // physical SM count the results are scaled to (80)
	ClockMHz      int     // 1200 MHz
	MaxCTAsPerSM  int     // 32
	MaxWarpsPerSM int     // 64
	Schedulers    int     // 4 warp schedulers per SM, GTO policy
	TensorCores   int     // 8 per SM (2 per processing block)
	RegFileKB     int     // 256 KB per SM
	L1KB          int     // 128 KB unified L1 per SM
	L2KB          int     // 4.5 MB shared
	L2Ways        int     // 24 ways, 32 sets (per Table III / [11])
	DRAMBandwidth float64 // GB/s (652.8)

	// --- Timing parameters (from [11] and §V-D) ---

	L1LatencyCycles   int // 28 (§V-D)
	L2LatencyCycles   int // 120 (Table III)
	DRAMLatencyCycles int // access latency before transfer
	LineBytes         int // 128-byte lines; every request and fill is a whole line
	SectorBytes       int // 32; validated, but no sector fills are modeled

	// MMA pipeline: a warp-level 16x16x16 MMA step occupies its processing
	// block for InitiationInterval cycles and completes after Latency.
	MMALatency    int
	MMAInitiation int
	// StoreLatency: cycles for a store to clear the LDST queue entry.
	StoreLatency int
	// RetireDelay models the register reuse window: the interval between a
	// tensor-core-load retiring and its destination register group being
	// reclaimed by the warp-register renaming pool of [15], at which point
	// the LHB entry must be released (§IV-B/§V-C). It is a calibrated
	// constant (see EXPERIMENTS.md): it sets the LHB hit-rate ceiling the
	// same way the paper's retire-eviction does.
	RetireDelay int

	// LDSTQueueDepth is the number of outstanding memory instructions per
	// SM before issue back-pressure (LDST stalls, §V-B).
	LDSTQueueDepth int

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

	// DenseClock ticks every SM on every cycle instead of the default
	// per-SM clock, which ticks an SM only on cycles where it can act and
	// accounts its skipped cycles arithmetically. Results are
	// byte-identical either way (the differential tests in clock_test.go
	// are the gate); the dense loop is their oracle and the baseline for
	// the clocking benchmarks.
	DenseClock bool

	// --- Hardening: run bounds and diagnostics ---

	// MaxCycles bounds the simulated clock: a run reaching this many cycles
	// aborts with a *SimError (PhaseCycleLimit) instead of running on. 0
	// selects the built-in runaway bound; negative is invalid.
	MaxCycles int64
	// WallTimeout bounds a run's wall-clock time: Run/RunContext derive a
	// deadline context from it, and the loop returns a *SimError
	// (PhaseDeadline) when it expires. 0 = no bound; negative is invalid.
	WallTimeout time.Duration
	// WatchdogWindow is the forward-progress watchdog's window in cycles:
	// when no instruction issues and no ROB entry retires for this many
	// consecutive cycles, the run aborts with a livelock diagnosis and a
	// crash dump instead of spinning forever. 0 selects the default —
	// max(DefaultWatchdogWindow, 8*RetireDelay), far above any legitimate
	// no-progress gap (the longest is the RetireDelay between a load
	// retiring and its LHB release) — and negative disables the watchdog.
	// Small explicit windows are for fault-injection tests only: a window
	// under ~8*RetireDelay can fire on a healthy but memory-bound run.
	WatchdogWindow int64
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
}

// TitanVConfig returns the baseline GPU model of Table III.
func TitanVConfig() Config {
	return Config{
		NumSMs:        80,
		ClockMHz:      1200,
		MaxCTAsPerSM:  32,
		MaxWarpsPerSM: 64,
		Schedulers:    4,
		TensorCores:   8,
		RegFileKB:     256,
		L1KB:          128,
		L2KB:          4608, // 4.5 MB
		L2Ways:        24,
		DRAMBandwidth: 652.8,

		L1LatencyCycles:   28,
		L2LatencyCycles:   120,
		DRAMLatencyCycles: 220,
		LineBytes:         128,
		SectorBytes:       32,

		MMALatency:    16,
		MMAInitiation: 4,
		StoreLatency:  4,
		RetireDelay:   8000,

		LDSTQueueDepth: 24,

		SimSMs:  4,
		MaxCTAs: 384,

		Duplo:     false,
		DetectCfg: duplo.DefaultDetectionUnitConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SimSMs <= 0 || c.SimSMs > c.NumSMs:
		return fmt.Errorf("sim: SimSMs %d out of range (1..%d)", c.SimSMs, c.NumSMs)
	case c.Schedulers <= 0 || c.MaxWarpsPerSM%c.Schedulers != 0:
		return fmt.Errorf("sim: %d schedulers must divide %d warps", c.Schedulers, c.MaxWarpsPerSM)
	case c.LineBytes <= 0 || c.SectorBytes <= 0 || c.LineBytes%c.SectorBytes != 0:
		return fmt.Errorf("sim: line %dB / sector %dB invalid", c.LineBytes, c.SectorBytes)
	case c.L1KB <= 0 || c.L2KB <= 0:
		return fmt.Errorf("sim: cache sizes must be positive")
	case c.DRAMBandwidth <= 0:
		return fmt.Errorf("sim: DRAM bandwidth must be positive")
	case c.LDSTQueueDepth <= 0:
		return fmt.Errorf("sim: LDST queue depth must be positive")
	case c.MaxWarpsPerSM <= 0:
		return fmt.Errorf("sim: MaxWarpsPerSM must be positive")
	case c.RetireDelay < 0:
		return fmt.Errorf("sim: RetireDelay %d must be >= 0", c.RetireDelay)
	case c.MaxCycles < 0:
		return fmt.Errorf("sim: MaxCycles %d must be >= 0 (0 = built-in bound)", c.MaxCycles)
	case c.WallTimeout < 0:
		return fmt.Errorf("sim: WallTimeout %v must be >= 0 (0 = none)", c.WallTimeout)
	}
	return nil
}

// DefaultWatchdogWindow is the floor of the resolved forward-progress
// window when Config.WatchdogWindow is 0 (~1M cycles: two orders of
// magnitude above the longest legitimate no-progress gap, the RetireDelay
// release lag).
const DefaultWatchdogWindow = int64(1) << 20

// watchdogWindow resolves Config.WatchdogWindow: 0 selects
// max(DefaultWatchdogWindow, 8*RetireDelay); negative disables (returns 0).
func (c Config) watchdogWindow() int64 {
	w := c.WatchdogWindow
	if w == 0 {
		w = DefaultWatchdogWindow
		if rd := 8 * int64(c.RetireDelay); rd > w {
			w = rd
		}
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
	return c.DRAMBandwidth * 1e9 / (float64(c.ClockMHz) * 1e6)
}

// SliceScale is the fraction of the chip being simulated.
func (c Config) SliceScale() float64 { return float64(c.SimSMs) / float64(c.NumSMs) }

// WarpsPerScheduler returns MaxWarpsPerSM / Schedulers.
func (c Config) WarpsPerScheduler() int { return c.MaxWarpsPerSM / c.Schedulers }

// TraceMeta describes this configuration to a trace.Collector: SM count,
// the skipped-span stall weight, and the slice-scaled DRAM bandwidth the
// exporters normalize against. interval <= 0 selects trace.DefaultInterval.
func (c Config) TraceMeta(interval int64) trace.Meta {
	return trace.Meta{
		SMs:               c.SimSMs,
		Schedulers:        c.Schedulers,
		Interval:          interval,
		LineBytes:         c.LineBytes,
		DRAMBytesPerCycle: c.DRAMBytesPerCycle() * c.SliceScale(),
	}
}
