package sim

import (
	"testing"

	"duplo/internal/conv"
	duplo "duplo/internal/core"
)

// runBoth simulates the test layer baseline and Duplo.
func runBoth(t *testing.T, p conv.Params, lhb duplo.LHBConfig) (Result, Result) {
	t.Helper()
	k, err := NewConvKernel("inv", p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	base, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duplo = true
	cfg.DetectCfg.LHB = lhb
	dup, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return base, dup
}

// Accounting invariants that must hold for any run.
func checkInvariants(t *testing.T, r Result, duploOn bool) {
	t.Helper()
	if r.L1Hits > r.L1Accesses {
		t.Errorf("L1 hits %d > accesses %d", r.L1Hits, r.L1Accesses)
	}
	if r.L2Hits > r.L2Accesses {
		t.Errorf("L2 hits %d > accesses %d", r.L2Hits, r.L2Accesses)
	}
	// Every L2 miss transfers exactly one line from DRAM.
	if r.DRAMLines != r.L2Accesses-r.L2Hits {
		t.Errorf("DRAM lines %d != L2 misses %d", r.DRAMLines, r.L2Accesses-r.L2Hits)
	}
	// DRAM-served lines in the breakdown equal DRAM transfers.
	if r.ServiceLines[ServiceDRAM] != r.DRAMLines {
		t.Errorf("service DRAM %d != DRAM lines %d", r.ServiceLines[ServiceDRAM], r.DRAMLines)
	}
	// Eliminated loads never exceed LHB hits, and both are zero without
	// Duplo.
	if !duploOn && (r.LoadsEliminated != 0 || r.LHB.Hits != 0) {
		t.Error("baseline produced Duplo activity")
	}
	if duploOn && r.LoadsEliminated != int64(r.LHB.Hits) {
		t.Errorf("eliminated %d != LHB hits %d", r.LoadsEliminated, r.LHB.Hits)
	}
	if r.LHB.Hits+r.LHB.Misses != r.LHB.Lookups {
		t.Errorf("LHB hits+misses %d != lookups %d", r.LHB.Hits+r.LHB.Misses, r.LHB.Lookups)
	}
	// Row loads are 16 per warp-level wmma.load.
	if r.TensorLoads%16 != 0 {
		t.Errorf("tensor loads %d not a multiple of 16 rows", r.TensorLoads)
	}
	if r.Cycles <= 0 {
		t.Error("no cycles")
	}
	// Issue-slot conservation: on every cycle 0..Cycles each scheduler of
	// each SM either issues or stalls, whether the clock ticked it or
	// accounted its skipped cycle arithmetically.
	if slots := int64(r.Config.Schedulers*r.Config.SimSMs) * (r.Cycles + 1); r.Instructions+r.IssueStallCycles != slots {
		t.Errorf("instructions %d + issue stalls %d != %d issue slots (%d schedulers x %d SMs x %d cycles)",
			r.Instructions, r.IssueStallCycles, slots, r.Config.Schedulers, r.Config.SimSMs, r.Cycles+1)
	}
}

func TestAccountingInvariants(t *testing.T) {
	layers := []conv.Params{
		testLayer,
		{N: 1, H: 12, W: 12, C: 4, K: 8, FH: 3, FW: 3, Pad: 0, Stride: 2},
		{N: 2, H: 8, W: 8, C: 8, K: 4, FH: 5, FW: 5, Pad: 2, Stride: 2},
	}
	for _, p := range layers {
		base, dup := runBoth(t, p, duplo.DefaultLHBConfig())
		checkInvariants(t, base, false)
		checkInvariants(t, dup, true)
		// The two runs execute identical work.
		if base.Instructions != dup.Instructions {
			t.Errorf("%v: instruction counts differ %d vs %d", p, base.Instructions, dup.Instructions)
		}
	}
}

// Determinism: repeated runs are bit-identical (no map-iteration or
// time-dependent behavior in the model).
func TestDeterminism(t *testing.T) {
	k, _ := NewConvKernel("det", testLayer)
	cfg := testConfig()
	cfg.Duplo = true
	a, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.LHB != b.LHB || a.DRAMLines != b.DRAMLines ||
		a.L1Accesses != b.L1Accesses || a.ServiceLines != b.ServiceLines {
		t.Fatalf("nondeterministic simulation:\n%+v\nvs\n%+v", a.Stats, b.Stats)
	}
}

// The detection-latency knob must cost performance, not help it.
func TestDetectionLatencyMonotone(t *testing.T) {
	k, _ := NewConvKernel("lat", testLayer)
	cfg := testConfig()
	cfg.Duplo = true
	cfg.DetectCfg.LatencyCycles = 2
	fast, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DetectCfg.LatencyCycles = 12 // exaggerated to make the effect visible
	slow, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles < fast.Cycles {
		t.Errorf("higher detection latency ran faster: %d vs %d", slow.Cycles, fast.Cycles)
	}
}

// Never-evict oracle must dominate the retire-evicting oracle in hit rate.
func TestEvictionPolicyOrdering(t *testing.T) {
	_, retire := runBoth(t, testLayer, duplo.LHBConfig{Oracle: true})
	_, never := runBoth(t, testLayer, duplo.LHBConfig{Oracle: true, NeverEvict: true})
	if never.LHBHitRate() < retire.LHBHitRate() {
		t.Errorf("never-evict %v < retire-evict %v", never.LHBHitRate(), retire.LHBHitRate())
	}
	// And the never-evict hit rate must respect the analytic duplication
	// ceiling: hits <= duplicate fraction of workspace-row lookups.
	if never.LHBHitRate() > 1 {
		t.Error("hit rate > 1")
	}
}

// Shared-memory variants must expose CTA concurrency 1, 2, 3 (the §II-C
// setup) and every variant must simulate to completion. The performance
// ordering itself is workload-dependent (TLP only pays off when latency
// bound); the smem ablation experiment evaluates it at scale.
func TestSharedVariantConcurrency(t *testing.T) {
	cfg := testConfig()
	want := map[SharedVariant]int{SharedABC: 1, SharedAC: 2, SharedCOnly: 3}
	for v, n := range want {
		k, _ := NewConvKernel("smem", testLayer)
		k.Variant = v
		if got := k.CTAsPerSM(cfg); got != n {
			t.Errorf("%v: CTAs/SM %d, want %d", v, got, n)
		}
		if _, err := Run(cfg, k); err != nil {
			t.Errorf("%v: %v", v, err)
		}
	}
}

// A larger batch scales the GEMM's M (the workspace rows) by the same
// factor and never shrinks the CTA grid. This checks that shape only, not
// the §V-F trend (Fig. 13 improvement falling from batch 8 to 32): a run
// capped below a layer's batch-8 CTA count simulates the same CTAs at
// every batch size, so capped runs show no batch trend at all.
func TestBatchScaling(t *testing.T) {
	p8 := testLayer
	p32 := testLayer.WithBatch(testLayer.N * 4)
	k8, _ := NewConvKernel("b8", p8)
	k32, _ := NewConvKernel("b32", p32)
	if k32.M != 4*k8.M {
		t.Fatalf("batch scaling broken: M %d vs %d", k32.M, k8.M)
	}
	if k32.TotalCTAs() < k8.TotalCTAs() {
		t.Fatal("CTA count must grow with batch")
	}
}
