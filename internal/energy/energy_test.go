package energy

import (
	"testing"

	"duplo/internal/sim"
)

func fakeResult(duplo bool) sim.Result {
	var r sim.Result
	r.TensorLoads = 1000 * 16
	r.MMAs = 8000
	r.Stores = 800
	r.L1Accesses = 60000
	r.L2Accesses = 20000
	r.DRAMLines = 9000
	r.StoreLines = 800
	if duplo {
		r.LoadsEliminated = 9000
		r.LHB.Lookups = 14000
		r.LHB.Hits = 9000
		r.L1Accesses = 35000
		r.L2Accesses = 9000
		r.DRAMLines = 6000
	}
	return r
}

func TestEnergyBreakdownPositive(t *testing.T) {
	m := Default12nm()
	b := Energy(m, fakeResult(false))
	if b.OnChipNJ <= 0 || b.TotalNJ <= b.OnChipNJ {
		t.Fatalf("breakdown %+v", b)
	}
	if b.LHBNJ != 0 {
		t.Fatal("baseline must have zero LHB energy")
	}
	d := Energy(m, fakeResult(true))
	if d.LHBNJ <= 0 {
		t.Fatal("duplo must pay LHB energy")
	}
}

func TestOnChipSaving(t *testing.T) {
	m := Default12nm()
	s := OnChipSaving(m, fakeResult(false), fakeResult(true))
	if s <= 0 || s >= 1 {
		t.Fatalf("saving %v", s)
	}
	// Duplo pays the LHB but removes far more cache/RF traffic.
	if s < 0.05 {
		t.Fatalf("saving %v implausibly small for these counts", s)
	}
}

func TestLHBBitsAndArea(t *testing.T) {
	per, total := LHBBits(1024)
	if per != 61 {
		t.Fatalf("per-entry bits %d", per)
	}
	if total != 1024*61 {
		t.Fatalf("total bits %d", total)
	}
	ovh := AreaOverhead(1024)
	// ~7.6KB SRAM vs 256KB register file: ~3%. The paper reports 0.77%
	// (their entry stores only 22 tag bits and their register file area is
	// denser than pure SRAM); same order of magnitude.
	if ovh <= 0 || ovh > 0.1 {
		t.Fatalf("area overhead %v out of regime", ovh)
	}
	// Bigger buffers cost proportionally more.
	if AreaOverhead(2048) <= ovh {
		t.Fatal("area must grow with entries")
	}
}

func TestZeroBaseline(t *testing.T) {
	m := Default12nm()
	if OnChipSaving(m, sim.Result{}, sim.Result{}) != 0 {
		t.Fatal("zero baseline must yield zero saving")
	}
}
