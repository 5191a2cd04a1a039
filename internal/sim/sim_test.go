package sim

import (
	"math"
	"math/rand"
	"testing"

	"duplo/internal/conv"
	duplo "duplo/internal/core"
)

// testConfig is a small, fast configuration for unit tests.
func testConfig() Config {
	cfg := TitanVConfig()
	cfg.SimSMs = 2
	cfg.MaxCTAs = 16
	return cfg
}

// A small stride-1 layer with heavy duplication.
var testLayer = conv.Params{N: 2, H: 16, W: 16, C: 16, K: 32, FH: 3, FW: 3, Pad: 1, Stride: 1}

func TestKernelGeometry(t *testing.T) {
	k, err := NewConvKernel("test", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	if k.M != 2*16*16 || k.K != 3*3*16 || k.N != 32 {
		t.Fatalf("GEMM dims %dx%dx%d", k.M, k.K, k.N)
	}
	if k.KPad%16 != 0 || k.NPad%16 != 0 || k.MPad%16 != 0 {
		t.Fatal("padded dims not tile aligned")
	}
	gm, gn := k.GridCTAs()
	if gm*gn != k.TotalCTAs() || k.TotalCTAs() <= 0 {
		t.Fatalf("grid %dx%d", gm, gn)
	}
	if k.KTiles() != k.KPad/16 {
		t.Fatal("KTiles")
	}
}

func TestCTAsPerSMVariants(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	cfg := testConfig()
	// §II-C: C-only -> 3 CTAs, A+C -> 2, A+B+C -> 1.
	k.Variant = SharedCOnly
	if got := k.CTAsPerSM(cfg); got != 3 {
		t.Errorf("C-only CTAs = %d, want 3", got)
	}
	k.Variant = SharedAC
	if got := k.CTAsPerSM(cfg); got != 2 {
		t.Errorf("A+C CTAs = %d, want 2", got)
	}
	k.Variant = SharedABC
	if got := k.CTAsPerSM(cfg); got != 1 {
		t.Errorf("A+B+C CTAs = %d, want 1", got)
	}
}

func TestWarpAssignmentsCoverCTA(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	work := k.warpAssignments(0)
	rowSeen := map[int]int{}
	colSeen := map[int]int{}
	for _, w := range work {
		for _, r := range w.rowTiles {
			rowSeen[r]++
		}
		for _, c := range w.colTiles {
			colSeen[c]++
		}
	}
	// CTA 0 covers rows 0..127 (8 tiles) if MPad >= 128.
	if k.MPad >= 128 && len(rowSeen) != 8 {
		t.Fatalf("row tiles covered: %d", len(rowSeen))
	}
	// NPad = 32 here: only two column tiles exist.
	if len(colSeen) != k.NPad/16 {
		t.Fatalf("col tiles covered: %d, want %d", len(colSeen), k.NPad/16)
	}
}

func TestWarpProgramDecoding(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	work := k.warpAssignments(0)
	for wi, w := range work {
		prog := newWarpProgram(k, w)
		if prog.Len() == 0 {
			continue
		}
		loads, mmas, stores := 0, 0, 0
		regWritten := make([]bool, prog.RegGroups())
		for i := 0; i < prog.Len(); i++ {
			in := prog.At(i)
			switch in.Op {
			case OpLoadA, OpLoadB:
				loads++
				regWritten[in.Dst] = true
			case OpMMA:
				mmas++
				// Data-flow sanity: MMA sources must have been written.
				if !regWritten[in.SrcA] || !regWritten[in.SrcB] {
					t.Fatalf("warp %d instr %d: MMA reads unwritten register", wi, i)
				}
				regWritten[in.Dst] = true
			case OpStoreD:
				stores++
				if !regWritten[in.SrcA] {
					t.Fatalf("warp %d instr %d: store reads unwritten accumulator", wi, i)
				}
			}
		}
		rt, ct := len(w.rowTiles), len(w.colTiles)
		kt := k.KTiles()
		if loads != kt*(2*rt+2*ct) {
			t.Fatalf("warp %d: loads %d, want %d", wi, loads, kt*(2*rt+2*ct))
		}
		if mmas != kt*rt*ct {
			t.Fatalf("warp %d: mmas %d, want %d", wi, mmas, kt*rt*ct)
		}
		if stores != rt*ct {
			t.Fatalf("warp %d: stores %d, want %d", wi, stores, rt*ct)
		}
	}
}

// Octet duplication: per k-step each A/B tile is loaded exactly twice at the
// same address (§II-B).
func TestOctetDuplicateLoads(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	work := k.warpAssignments(0)
	prog := newWarpProgram(k, work[0])
	addrCount := map[uint64]int{}
	for i := 0; i < prog.blockLn; i++ { // first k-step
		in := prog.At(i)
		if in.Op == OpLoadA || in.Op == OpLoadB {
			addrCount[in.Addr]++
		}
	}
	for a, n := range addrCount {
		if n != 2 {
			t.Fatalf("address %#x loaded %d times, want 2", a, n)
		}
	}
}

func TestLineSpan(t *testing.T) {
	// 16 rows of 32 bytes with a 32-byte pitch: fully contiguous 512B ->
	// 4 lines of 128B.
	in := Instr{Addr: 0x1000, RowPitch: 32, RowBytes: 32}
	lines := lineSpan(nil, in, 128)
	if len(lines) != 4 {
		t.Fatalf("contiguous tile lines = %d, want 4", len(lines))
	}
	// 16 rows with a large pitch: 16 distinct lines.
	in = Instr{Addr: 0x1000, RowPitch: 4096, RowBytes: 32}
	lines = lineSpan(nil, in, 128)
	if len(lines) != 16 {
		t.Fatalf("strided tile lines = %d, want 16", len(lines))
	}
	// Misaligned segment straddling a line boundary.
	in = Instr{Addr: 0x10F0, RowPitch: 4096, RowBytes: 32}
	lines = lineSpan(nil, in, 128)
	if len(lines) != 32 {
		t.Fatalf("straddling tile lines = %d, want 32", len(lines))
	}
}

// TestCacheArrayLRU pins replacement on a hand-made 2-set, 2-way case,
// then replays random line streams over several geometries — direct-mapped,
// 8 ways, the L2's 24 ways, and a single set — against a per-set recency
// list, on a fresh array for each stream.
func TestCacheArrayLRU(t *testing.T) {
	c := newCacheArray(4*128, 128, 2)                  // 2 sets x 2 ways
	a, b, d := uint64(0), uint64(2*128), uint64(4*128) // same set (stride 2 lines)
	if c.Access(a) || c.Access(b) {
		t.Fatal("cold misses expected")
	}
	if !c.Access(a) || !c.Access(b) {
		t.Fatal("both ways should hit")
	}
	c.Access(a) // make b the LRU
	if c.Access(d) {
		t.Fatal("d should miss, evicting b")
	}
	if !c.Access(a) || !c.Access(d) {
		t.Fatal("a and d should be resident")
	}
	if c.Access(b) {
		t.Fatal("LRU way (b) should have been evicted")
	}

	geometries := []struct{ capacity, ways int }{
		{16 * 128, 1},      // direct-mapped, 16 sets
		{64 * 128, 8},      // 8 sets
		{24 * 8 * 128, 24}, // 8 sets of the L2's 24 ways
		{24 * 128, 24},     // a single set
		{4 * 128, 4},       // a single small set
	}
	r := rand.New(rand.NewSource(1))
	for _, g := range geometries {
		for stream := 0; stream < 3; stream++ {
			c := newCacheArray(g.capacity, 128, g.ways)
			recency := make([][]uint64, c.sets) // per set, least recent first
			span := 2*c.sets*c.ways + 3
			for i := 0; i < 5000; i++ {
				line := uint64(r.Intn(span)) * 128
				set := &recency[(line/128)%uint64(c.sets)]
				want := false
				for j, l := range *set {
					if l == line {
						want = true
						*set = append((*set)[:j], (*set)[j+1:]...)
						break
					}
				}
				if !want && len(*set) == c.ways {
					*set = (*set)[1:]
				}
				*set = append(*set, line)
				if got := c.Access(line); got != want {
					t.Fatalf("%d lines x %d ways, stream %d, access %d (line %#x): hit %v, want %v",
						g.capacity/128, g.ways, stream, i, line, got, want)
				}
			}
		}
	}
}

func TestRunBaselineCompletes(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	res, err := Run(testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Instructions <= 0 {
		t.Fatalf("empty result %+v", res.Stats)
	}
	if res.TensorLoads == 0 || res.MMAs == 0 || res.Stores == 0 {
		t.Fatalf("missing instruction classes: %+v", res.Stats)
	}
	if res.LoadsEliminated != 0 || res.LHB.Lookups != 0 {
		t.Fatal("baseline must not touch the LHB")
	}
	if res.DRAMLines == 0 {
		t.Fatal("expected DRAM traffic")
	}
}

func TestRunDuploFasterAndCorrectCounts(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	cfg := testConfig()
	base, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duplo = true
	dup, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	// Same work.
	if dup.MMAs != base.MMAs || dup.Stores != base.Stores || dup.TensorLoads != base.TensorLoads {
		t.Fatalf("instruction counts differ: base %+v vs duplo %+v", base.Stats, dup.Stats)
	}
	if dup.LHB.Lookups == 0 || dup.LHB.Hits == 0 {
		t.Fatalf("expected LHB activity: %+v", dup.LHB)
	}
	if dup.LoadsEliminated == 0 {
		t.Fatal("expected eliminated loads")
	}
	if dup.Cycles >= base.Cycles {
		t.Fatalf("Duplo (%d cycles) not faster than baseline (%d)", dup.Cycles, base.Cycles)
	}
	// This small layer fits in cache, so eliminated loads were L1 hits in
	// the baseline: traffic can only stay equal or shrink.
	if dup.DRAMLines > base.DRAMLines {
		t.Fatalf("Duplo DRAM lines %d > baseline %d", dup.DRAMLines, base.DRAMLines)
	}
	if Speedup(base, dup) <= 0 {
		t.Fatal("speedup must be positive")
	}
}

// Under cache pressure (tiny L1/L2), duplicate refetches reach DRAM in the
// baseline; Duplo's renaming must cut the DRAM read traffic — the Fig. 11
// effect.
func TestDuploReducesDRAMTrafficUnderPressure(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	cfg := testConfig()
	cfg.L1KB = 8
	cfg.L2KB = 64
	base, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duplo = true
	dup, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if dup.DRAMLines >= base.DRAMLines {
		t.Fatalf("Duplo DRAM lines %d >= baseline %d under cache pressure", dup.DRAMLines, base.DRAMLines)
	}
}

// A plain GEMM kernel (no conv info) must run under Duplo with zero LHB
// activity — the detection unit stays power-gated.
func TestRunPlainGemmBypasses(t *testing.T) {
	k, err := NewGemmKernel("wgrad", 512, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Duplo = true
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.LHB.Lookups != 0 || res.LoadsEliminated != 0 {
		t.Fatalf("plain GEMM must bypass the LHB: %+v", res.LHB)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
}

// Oracle LHB must dominate finite LHBs, which must dominate tiny ones.
func TestLHBSizeMonotonicity(t *testing.T) {
	k, _ := NewConvKernel("test", testLayer)
	cfg := testConfig()
	cfg.Duplo = true
	hit := func(c duplo.LHBConfig) float64 {
		cfg.DetectCfg.LHB = c
		res, err := Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		return res.LHBHitRate()
	}
	small := hit(duplo.LHBConfig{Entries: 64, Ways: 1})
	large := hit(duplo.LHBConfig{Entries: 2048, Ways: 1})
	oracle := hit(duplo.LHBConfig{Oracle: true})
	if !(small <= large+1e-9 && large <= oracle+1e-9) {
		t.Fatalf("hit rates not monotone: %v %v %v", small, large, oracle)
	}
	if oracle == 0 {
		t.Fatal("oracle hit rate zero")
	}
}

func TestConfigValidate(t *testing.T) {
	good := TitanVConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SimSMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("SimSMs=0 should fail")
	}
	bad = good
	bad.SimSMs = 200
	if err := bad.Validate(); err == nil {
		t.Error("SimSMs>NumSMs should fail")
	}
	bad = good
	bad.Schedulers = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-dividing schedulers should fail")
	}
	bad = good
	bad.SectorBytes = 33
	if err := bad.Validate(); err == nil {
		t.Error("bad sector size should fail")
	}
	// An L2 of no ways divided by zero, and one of negative ways failed
	// makeslice, inside sim.Run before its panic barrier.
	for _, ways := range []int{0, -1} {
		bad = good
		bad.L2Ways = ways
		if err := bad.Validate(); err == nil {
			t.Errorf("L2Ways=%d should fail", ways)
		}
	}
	// Caches whose byte size overflows, or whose tag arrays would not fit
	// in memory.
	for _, kb := range []int{math.MaxInt >> 2, 1 << 40, maxCacheLines/8 + 1} {
		bad = good
		bad.L1KB = kb
		if err := bad.Validate(); err == nil {
			t.Errorf("L1KB=%d should fail", kb)
		}
		bad = good
		bad.L2KB = kb
		if err := bad.Validate(); err == nil {
			t.Errorf("L2KB=%d should fail", kb)
		}
	}
	big := good
	big.L1KB, big.L2KB = maxCacheLines/8, maxCacheLines/8 // exactly maxCacheLines 128-byte lines
	if err := big.Validate(); err != nil {
		t.Errorf("caches of maxCacheLines lines should pass: %v", err)
	}
}

// TestL1EvictedPendingMissMerges fills one L1 set with misses in flight,
// evicts the least recently used of them with one more miss, and reads
// the evicted line twice: before its fill the read merges into the miss in
// flight (an MSHR merge, no L2 access), and from its fill on it misses. A
// line still resident with its fill pending merges too.
func TestL1EvictedPendingMissMerges(t *testing.T) {
	cfg := testConfig()
	var mem Stats
	sm := newSM(cfg, 0, newMemSystem(cfg, &mem), &gpuState{cfg: cfg})
	stride := uint64(sm.l1.sets * cfg.LineBytes) // lines this far apart share a set
	ways := int64(sm.l1.ways)
	fills := make([]int64, ways+1)
	for i := range fills {
		var src ServiceLevel
		if fills[i], src = sm.accessLine(uint64(i)*stride, int64(i)); src == ServiceL1 {
			t.Fatalf("line %d: cold read served by %v", i, src)
		}
	}
	if fills[0] <= ways+2 {
		t.Fatalf("first fill at cycle %d: the test needs it after cycle %d", fills[0], ways+2)
	}
	read := func(name string, i, at int64, merge bool) {
		t.Helper()
		merges, l2 := sm.stats.MSHRMerges, mem.L2Accesses
		ready, src := sm.accessLine(uint64(i)*stride, at)
		if merge && (ready != fills[i] || src != ServiceL1 || sm.stats.MSHRMerges != merges+1 || mem.L2Accesses != l2) {
			t.Fatalf("%s: ready %d from %v, %d merges, %d L2 accesses; want the miss in flight (ready %d from L1$), %d merges, %d L2 accesses",
				name, ready, src, sm.stats.MSHRMerges, mem.L2Accesses, fills[i], merges+1, l2)
		}
		if !merge && (src == ServiceL1 || sm.stats.MSHRMerges != merges || mem.L2Accesses != l2+1) {
			t.Fatalf("%s: ready %d from %v, %d merges, %d L2 accesses; want a miss, %d merges, %d L2 accesses",
				name, ready, src, sm.stats.MSHRMerges, mem.L2Accesses, merges, l2+1)
		}
	}
	read("evicted line before its fill", 0, ways+1, true)
	read("resident line before its fill", 1, ways+2, true)
	read("evicted line at its fill", 0, fills[0], false)
}

func TestDRAMBytesPerCycle(t *testing.T) {
	cfg := TitanVConfig()
	// 652.8 GB/s at 1.2 GHz = 544 B/cycle.
	if got := cfg.DRAMBytesPerCycle(); got < 543.9 || got > 544.1 {
		t.Fatalf("DRAM B/cyc = %v", got)
	}
}

func TestStatsAddAndBreakdown(t *testing.T) {
	var a, b Stats
	a.TensorLoads = 3
	a.ServiceLines[ServiceL1] = 3
	b.TensorLoads = 2
	b.ServiceLines[ServiceDRAM] = 1
	a.Add(b)
	if a.TensorLoads != 5 {
		t.Fatal("Add failed")
	}
	br := a.ServiceBreakdown()
	if br[ServiceL1] != 0.75 || br[ServiceDRAM] != 0.25 {
		t.Fatalf("breakdown %+v", br)
	}
}

func TestServiceLevelStrings(t *testing.T) {
	names := []string{"LHB", "L1$", "L2$", "DRAM"}
	for i, w := range names {
		if ServiceLevel(i).String() != w {
			t.Errorf("level %d = %q", i, ServiceLevel(i).String())
		}
	}
}

// TestMissesInFlight: the crash dump's MSHR count is the line misses whose
// fills land after the dump cycle, whether the line is still in L1 or was
// evicted before its fill.
func TestMissesInFlight(t *testing.T) {
	cfg := testConfig()
	var mem Stats
	sm := newSM(cfg, 0, newMemSystem(cfg, &mem), &gpuState{cfg: cfg})
	stride := uint64(sm.l1.sets * cfg.LineBytes)
	var last int64
	for i := 0; i <= sm.l1.ways; i++ { // one more miss than the set holds
		fill, _ := sm.accessLine(uint64(i)*stride, int64(i))
		last = max(last, fill)
	}
	first, _ := sm.accessLine(0, int64(sm.l1.ways+1)) // evicted, still in flight
	for _, c := range []struct {
		at   int64
		want int
	}{{int64(sm.l1.ways + 1), sm.l1.ways + 1}, {first, sm.l1.ways}, {last, 0}} {
		if got := sm.missesInFlight(c.at); got != c.want {
			t.Errorf("at cycle %d: %d misses in flight, want %d", c.at, got, c.want)
		}
	}
}
