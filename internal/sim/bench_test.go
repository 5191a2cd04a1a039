package sim

import (
	"testing"

	"duplo/internal/conv"
	duplo "duplo/internal/core"
)

// BenchmarkSimBaseline measures raw simulator throughput on the small test
// layer (cycles simulated per wall second matter for experiment budgets).
func BenchmarkSimBaseline(b *testing.B) {
	k, err := NewConvKernel("bench", testLayer)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxCTAs = 8
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkSimDuplo measures the Duplo-enabled path (detection-unit lookups
// on every workspace row load).
func BenchmarkSimDuplo(b *testing.B) {
	k, err := NewConvKernel("bench", testLayer)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxCTAs = 8
	cfg.Duplo = true
	cfg.DetectCfg.LHB = duplo.DefaultLHBConfig()
	b.ResetTimer()
	var imp float64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		imp = res.LHBHitRate()
	}
	b.ReportMetric(100*imp, "hit_rate_%")
}

// benchMemBoundLayer is ResNet C6-shaped: a deep-K 3x3 stride-1 layer
// whose fills dominate under the shrunken caches below.
var benchMemBoundLayer = conv.Params{N: 8, H: 14, W: 14, C: 256, K: 256, FH: 3, FW: 3, Pad: 1, Stride: 1}

// memBoundConfig is a quick-scale Titan-V slice with shrunken caches:
// fills go to DRAM, occupancy is low, and most cycles are dead — the
// regime the event-driven clock targets (and Duplo's §V sweet spot).
func memBoundConfig() Config {
	cfg := TitanVConfig()
	cfg.SimSMs = 2
	cfg.MaxCTAs = 8
	cfg.L1KB = 8
	cfg.L2KB = 64
	return cfg
}

func benchClock(b *testing.B, dense, withDuplo bool) {
	k, err := NewConvKernel("clock-bench", benchMemBoundLayer)
	if err != nil {
		b.Fatal(err)
	}
	cfg := memBoundConfig()
	cfg.denseClock = dense
	if withDuplo {
		cfg.Duplo = true
		cfg.DetectCfg.LHB = duplo.DefaultLHBConfig()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkRunDense vs BenchmarkRunEventDriven measure the cycle-skipping
// payoff on a memory-bound layer (ratio recorded in EXPERIMENTS.md);
// BenchmarkRunEventDrivenDuplo is the same cell with the detection path on
// — the workload the hot-path data-layout work targets.
func BenchmarkRunDense(b *testing.B)            { benchClock(b, true, false) }
func BenchmarkRunEventDriven(b *testing.B)      { benchClock(b, false, false) }
func BenchmarkRunEventDrivenDuplo(b *testing.B) { benchClock(b, false, true) }

// BenchmarkRunSerialSMs measures one Run over a 4-SM slice of the
// memory-bound layer (16 CTAs): the cycle loop's per-SM cost at a wider
// slice than benchClock's.
func BenchmarkRunSerialSMs(b *testing.B) {
	k, err := NewConvKernel("sm-bench", benchMemBoundLayer)
	if err != nil {
		b.Fatal(err)
	}
	cfg := memBoundConfig()
	cfg.SimSMs = 4
	cfg.MaxCTAs = 16
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkPlaceCTA measures CTA placement cost — the path the memoized
// warp-program cache removes per-wave program construction from.
func BenchmarkPlaceCTA(b *testing.B) {
	k, err := NewConvKernel("place-bench", testLayer)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig()
	var stats Stats
	mem := newMemSystem(cfg, &stats)
	sm := newSM(cfg, 0, mem, &gpuState{cfg: cfg})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.placeCTA(k, i%k.TotalCTAs(), int64(i))
		// Free the slots again so placement never runs out of capacity.
		for s := range sm.warps {
			sm.deactivateSlot(s)
		}
		sm.resident = 0
		for cta := range sm.ctaWarpsLeft {
			delete(sm.ctaWarpsLeft, cta)
		}
	}
}

func BenchmarkWarpProgramDecode(b *testing.B) {
	k, _ := NewConvKernel("bench", testLayer)
	prog := newWarpProgram(k, k.warpAssignments(0)[0])
	b.ResetTimer()
	var sink Instr
	for i := 0; i < b.N; i++ {
		sink = prog.At(i % prog.Len())
	}
	_ = sink
}

func BenchmarkLineSpan(b *testing.B) {
	in := Instr{Addr: 0x1000, RowPitch: 1152, RowBytes: 32}
	buf := make([]uint64, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = lineSpan(buf[:0], in)
	}
	_ = buf
}
