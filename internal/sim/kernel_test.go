package sim

import (
	"fmt"
	"sync"
	"testing"

	"duplo/internal/conv"
	duplo "duplo/internal/core"
	"duplo/internal/workload"
)

// GAN TC4 has K=3 filters -> NPad=16: only one 16-wide column tile exists,
// so half of each CTA's warps (the wc=1 column) have no work.
func TestTinyNKernel(t *testing.T) {
	tc4, _ := workload.Find("GAN", "TC4")
	k, err := NewConvKernel(tc4.FullName(), tc4.GemmParams())
	if err != nil {
		t.Fatal(err)
	}
	if k.NPad != 16 {
		t.Fatalf("NPad %d", k.NPad)
	}
	work := k.warpAssignments(0)
	live := 0
	for _, w := range work {
		if len(w.rowTiles) > 0 && len(w.colTiles) > 0 {
			live++
			if len(w.colTiles) != 1 {
				t.Fatalf("col tiles %d, want 1", len(w.colTiles))
			}
		}
	}
	if live != 4 {
		t.Fatalf("live warps %d, want 4 (wc=0 column only)", live)
	}
	// The kernel must still simulate to completion.
	cfg := testConfig()
	cfg.MaxCTAs = 4
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.MMAs <= 0 {
		t.Fatal("degenerate run")
	}
}

// Edge CTA at the bottom of the grid: a kernel whose MPad is not a multiple
// of the CTA tile leaves some warps of the last CTA without row tiles.
func TestEdgeCTA(t *testing.T) {
	// M = 1*6*6 = 36 -> MPad = 48: CTA covers 128 rows, only 3 row tiles.
	p := conv.Params{N: 1, H: 6, W: 6, C: 16, K: 32, FH: 3, FW: 3, Pad: 1, Stride: 1}
	k, err := NewConvKernel("edge", p)
	if err != nil {
		t.Fatal(err)
	}
	if k.TotalCTAs() != 1 {
		t.Fatalf("grid %d", k.TotalCTAs())
	}
	work := k.warpAssignments(0)
	totalRowTiles := 0
	for _, w := range work {
		if len(w.colTiles) == 0 {
			continue
		}
		totalRowTiles += len(w.rowTiles)
	}
	// MPad=48 -> 3 row tiles; NPad=32 -> only the wc=0 warp column has
	// work, so 3 row-tile assignments in total.
	if totalRowTiles != 3 {
		t.Fatalf("row tile assignments %d, want 3", totalRowTiles)
	}
	res, err := Run(testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	// Work conservation: warp MMAs cover exactly MPad/16 x NPad/16 x KTiles.
	wantMMA := int64(k.MPad/16) * int64(k.NPad/16) * int64(k.KTiles())
	if res.MMAs != wantMMA {
		t.Fatalf("MMAs %d, want %d", res.MMAs, wantMMA)
	}
	wantStores := int64(k.MPad/16) * int64(k.NPad/16)
	if res.Stores != wantStores {
		t.Fatalf("stores %d, want %d", res.Stores, wantStores)
	}
}

// Work conservation on a multi-CTA grid with the CTA cap disabled.
func TestWorkConservationFullGrid(t *testing.T) {
	p := conv.Params{N: 1, H: 16, W: 16, C: 16, K: 48, FH: 3, FW: 3, Pad: 1, Stride: 1}
	k, _ := NewConvKernel("full", p)
	cfg := testConfig()
	cfg.MaxCTAs = 0 // full grid
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedCTAs != k.TotalCTAs() {
		t.Fatalf("simulated %d of %d", res.SimulatedCTAs, k.TotalCTAs())
	}
	wantMMA := int64(k.MPad/16) * int64(k.NPad/16) * int64(k.KTiles())
	if res.MMAs != wantMMA {
		t.Fatalf("MMAs %d, want %d", res.MMAs, wantMMA)
	}
	// Loads: per warp per kstep, 2 octet copies per row tile and per col
	// tile, each expanding to 16 row-vector loads. Expected count derived
	// from the static warp assignments, independent of the issue logic.
	var perKstep int64
	for cta := 0; cta < k.TotalCTAs(); cta++ {
		for _, w := range k.warpAssignments(cta) {
			if len(w.rowTiles) == 0 || len(w.colTiles) == 0 {
				continue
			}
			perKstep += int64(2*len(w.rowTiles) + 2*len(w.colTiles))
		}
	}
	wantLoads := 16 * int64(k.KTiles()) * perKstep
	if res.TensorLoads != wantLoads {
		t.Fatalf("loads %d, want %d", res.TensorLoads, wantLoads)
	}
}

func TestGemmKernelValidation(t *testing.T) {
	if _, err := NewGemmKernel("bad", 0, 4, 4); err == nil {
		t.Error("zero M should fail")
	}
	if _, err := NewConvKernel("bad", conv.Params{}); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestSharedVariantStrings(t *testing.T) {
	for _, v := range []SharedVariant{SharedCOnly, SharedAC, SharedABC} {
		if v.String() == "?" {
			t.Errorf("variant %d unnamed", v)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for _, o := range []Op{OpLoadA, OpLoadB, OpMMA, OpStoreD} {
		if o.String() == "?" {
			t.Errorf("op %d unnamed", o)
		}
	}
}

// TestWarpProgramMemoized pins the memoization contract: placeCTA-visible
// instruction streams from the canonical shared programs (relocated by the
// warp offsets) must match a freshly built absolute-address program for
// every warp of interior and edge CTAs alike. The cache is lazy: the
// constructor leaves it unbuilt, the first program call builds it, and
// later calls return the same programs.
func TestWarpProgramMemoized(t *testing.T) {
	k, err := NewConvKernel("memo", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	if k.progs != nil {
		t.Fatal("constructor built the program cache; it must wait for the first program call")
	}
	first := k.program(warpTileM, warpTileN)
	if k.progs == nil || first != k.progs[warpTileM][warpTileN] {
		t.Fatal("first program call did not build and serve the program cache")
	}
	if again := k.program(warpTileM, warpTileN); again != first {
		t.Fatal("second program call returned a different program")
	}
	gm, gn := k.GridCTAs()
	ctas := []int{0, gn - 1, (gm - 1) * gn, gm*gn - 1} // corners incl. edge tiles
	for _, cta := range ctas {
		for w := 0; w < warpsPerCTA; w++ {
			ref := newWarpProgram(k, k.warpAssignments(cta)[w])
			rt, ct, firstRow, firstCol := k.warpShape(cta, w)
			got := k.program(rt, ct)
			if got.Len() != ref.Len() {
				t.Fatalf("CTA %d warp %d: length %d, want %d", cta, w, got.Len(), ref.Len())
			}
			if ref.Len() == 0 {
				continue
			}
			if op := ref.At(0).Op; op != OpLoadA {
				t.Fatalf("CTA %d warp %d: first op %v, want OpLoadA", cta, w, op)
			}
			if rt >= 1 && rt <= warpTileM && ct >= 1 && ct <= warpTileN && got != k.progs[rt][ct] {
				t.Fatalf("CTA %d warp %d: program not served from the cache", cta, w)
			}
			aOff, bOff, dOff := k.warpOffsets(firstRow, firstCol)
			for i := 0; i < ref.Len(); i++ {
				in := got.At(i)
				relocateInstr(&in, aOff, bOff, dOff)
				if want := ref.At(i); in != want {
					t.Fatalf("CTA %d warp %d instr %d: relocated %+v, want %+v", cta, w, i, in, want)
				}
			}
		}
	}
}

// TestWarpProgramLazyConcurrentFirstUse makes the first program call on
// one fresh kernel from 8 goroutines at once, as concurrent Runs sharing
// one *Kernel do (duplosim's baseline and Duplo runs, the calibration
// fan-out): under -race this audits the lazy build, and every goroutine
// must be served the same program for every warp shape.
func TestWarpProgramLazyConcurrentFirstUse(t *testing.T) {
	k, err := NewConvKernel("lazy", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var got [goroutines]progCache
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for rt := 1; rt <= warpTileM; rt++ {
				for ct := 1; ct <= warpTileN; ct++ {
					got[g][rt][ct] = k.program(rt, ct)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != *k.progs {
			t.Fatalf("goroutine %d was served programs other than the cache's", g)
		}
	}
}

// TestHotPathAllocs: once a kernel's warp programs are built, placing a
// CTA, decoding an instruction (warpProgram.At, then relocateInstr),
// splitting a tile access into cache lines (lineSpan), a cache access, an
// L1 line request (accessLine, with the MSHR sweep tick runs), retiring
// ROB entries, a Duplo row access plus its retire, and a whole tile's
// (AccessTile, RetireTile) allocate nothing. AllocsPerRun's warm-up call
// absorbs the program build and the first growth of the oracle and the
// MSHR table.
func TestHotPathAllocs(t *testing.T) {
	k, err := NewConvKernel("allocs", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	var stats Stats
	sm := newSM(cfg, 0, newMemSystem(cfg, &stats), &gpuState{cfg: cfg})
	check := func(path string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", path, allocs)
		}
	}
	check("placeCTA", func() {
		sm.placeCTA(k, 0, 1)
		// Free the slots again so placement never runs out of capacity.
		for s := range sm.warps {
			sm.deactivateSlot(s)
		}
		sm.resident = 0
		delete(sm.ctaWarpsLeft, 0)
	})
	w := &sm.warps[0] // a freed slot keeps its program and offsets
	check("decode", func() {
		for w.pc = 0; w.pc < w.prog.Len(); w.pc++ {
			w.curOK = false
			w.decode()
		}
	})
	lines := make([]uint64, 0, 2*tileRows)
	check("lineSpan", func() {
		for pc := 0; pc < w.prog.Len(); pc++ {
			if in := w.prog.At(pc); in.Op != OpMMA {
				lines = lineSpan(lines[:0], in, cfg.LineBytes)
			}
		}
	})
	check("cacheArray.Access", func() {
		for line := uint64(0); line < 4096; line++ {
			sm.l1.Access(line * 128)
		}
	})
	// Four passes over 4 L1s' worth of lines, each line requested twice in
	// a row, one request per cycle, with DRAM fills slower than that:
	// misses, merges into resident and evicted lines' fills, and evictions
	// of lines still in flight.
	var now int64
	check("accessLine", func() {
		now += 1 << 20 // every earlier fill has landed
		sm.sweepMSHR(now)
		for pass := 0; pass < 4; pass++ {
			for line := uint64(0); line < 4096; line++ {
				sm.accessLine(line*128, now)
				sm.accessLine(line*128, now+1)
				now += 2
			}
		}
	})
	if sm.stats.MSHRMerges == 0 || sm.mshr.Len() == 0 {
		t.Fatalf("accessLine: %d merges, %d lines evicted in flight; the check needs both", sm.stats.MSHRMerges, sm.mshr.Len())
	}
	sm.placeCTA(k, 0, 1)
	check("robPush+retire", func() {
		for round := int64(0); round < 4; round++ {
			now++
			for s := range sm.warps {
				if w := &sm.warps[s]; w.active {
					sm.robPush(w, robEntry{complete: now + int64(s%3)})
					sm.robPush(w, robEntry{complete: now + 3})
				}
			}
			for t := now; t <= now+3; t++ {
				sm.retire(t)
			}
			now += 3
		}
	})
	load := w.prog.At(0) // an A-tile load inside the workspace
	for _, lhb := range []duplo.LHBConfig{duplo.DefaultLHBConfig(), {Oracle: true}} {
		du, err := duplo.NewDetectionUnit(duplo.DetectionUnitConfig{LHB: lhb}, cfg.MaxWarpsPerSM, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := du.Program(*k.Conv, k.Layout); err != nil {
			t.Fatal(err)
		}
		if res, seq := du.Access(0, 0, load.Addr, 0); res.Kind != duplo.AccessMiss {
			t.Fatalf("%+v: first access to %#x is %v, want a miss", lhb, load.Addr, res.Kind)
		} else {
			du.Retire(load.Addr, seq)
		}
		check(fmt.Sprintf("duplo access+retire (%+v)", lhb), func() {
			for r := uint64(0); r < tileRows; r++ {
				addr := load.Addr + r*uint64(load.RowPitch)
				_, seq := du.Access(0, 0, addr, 0)
				du.Retire(addr, seq)
			}
		})
		check(fmt.Sprintf("duplo AccessTile+RetireTile (%+v)", lhb), func() {
			var res [tileRows]duplo.AccessResult
			seq := du.AccessTile(0, 0, load.Addr, load.RowPitch, &res)
			du.RetireTile(load.Addr, load.RowPitch, seq)
		})
	}
}
