// Package energy models on-chip energy and area implications of Duplo
// (§V-H), standing in for the paper's McPAT [21] evaluation.
//
// Energy is event-based: every counter the simulator produces (register
// accesses, LHB lookups, L1/L2 line accesses, DRAM line transfers, FEDP
// operations) is multiplied by a per-event energy drawn from published
// CACTI/McPAT-class numbers for a ~12nm GPU. The paper reports only
// relative deltas (34.1% on-chip energy reduction, 0.77% area overhead), so
// the shape depends on event-count ratios, which come from the simulator.
package energy

import "duplo/internal/sim"

// Model holds per-event energies in picojoules.
type Model struct {
	// Per-event energies (pJ).
	RegAccessPJ float64 // one 32-bit register-file access per thread
	LHBLookupPJ float64 // one LHB probe (small direct-mapped SRAM)
	IDGenPJ     float64 // shift/mask + reciprocal-multiply ID pipeline
	L1AccessPJ  float64 // one 128B line access in the L1 (tag + data)
	L1TagPJ     float64 // a tag-only probe (Duplo's parallel lookup that is
	// cancelled on an LHB hit, §IV-B)
	L2AccessPJ float64 // one 128B line access in the L2
	DRAMLinePJ float64 // one 128B line transfer (off-chip, excluded
	// from the "on-chip" total like the paper's §V-H accounting; reported
	// separately).
	FEDPOpPJ float64 // one four-element dot product step
}

// Default12nm returns the default energy model.
// Magnitudes follow the usual CACTI-class scaling: small SRAM probes are
// ~1-2pJ, big cache line accesses tens of pJ, DRAM line transfers ~1-2nJ.
func Default12nm() Model {
	return Model{
		RegAccessPJ: 1.2,
		LHBLookupPJ: 1.5,
		IDGenPJ:     0.6,
		L1AccessPJ:  60,
		L1TagPJ:     6,
		L2AccessPJ:  240,
		DRAMLinePJ:  2000,
		FEDPOpPJ:    2.0,
	}
}

// Breakdown reports the energy of one simulation, in nanojoules.
type Breakdown struct {
	RegisterNJ float64
	LHBNJ      float64 // LHB lookups + ID generation (zero without Duplo)
	L1NJ       float64
	L2NJ       float64
	TensorNJ   float64 // FEDP compute energy (identical in both designs;
	// excluded from the §V-H basis, which counts "only on-chip components
	// (i.e., registers, caches, and detection unit of Duplo)")
	OnChipNJ    float64 // registers + LHB + L1 + L2 (the §V-H comparison basis)
	DRAMNJ      float64 // off-chip, reported separately
	TotalNJ     float64
	LoadsRemove uint64
}

// Energy computes the event-based breakdown from simulation stats.
func Energy(m Model, r sim.Result) Breakdown {
	var b Breakdown
	// Register file: every warp-level load/MMA/store reads or writes 32
	// threads' registers; eliminated loads still write the rename table
	// (counted in LHB) but skip the RF fill... they share the existing
	// registers, so only the original fill paid the RF write.
	warpRegEvents := float64(r.TensorLoads-r.LoadsEliminated)*32 +
		float64(r.MMAs)*32*4 + float64(r.Stores)*32*2
	b.RegisterNJ = warpRegEvents * m.RegAccessPJ / 1e3
	if r.LHB.Lookups > 0 {
		b.LHBNJ = float64(r.LHB.Lookups) * (m.LHBLookupPJ + m.IDGenPJ) / 1e3
	}
	// LHB hits cancel the parallel L1 lookup before the data array is
	// read: those probes cost tag energy only (§IV-B / §V-H).
	fullL1 := r.L1Accesses - r.LoadsEliminated
	if fullL1 < 0 {
		fullL1 = 0
	}
	b.L1NJ = (float64(fullL1)*m.L1AccessPJ + float64(r.LoadsEliminated)*m.L1TagPJ) / 1e3
	b.L2NJ = float64(r.L2Accesses) * m.L2AccessPJ / 1e3
	// A warp MMA is 16x16x16 = 4096 MACs = 1024 FEDP steps.
	b.TensorNJ = float64(r.MMAs) * 1024 * m.FEDPOpPJ / 1e3
	b.DRAMNJ = float64(r.DRAMLines+r.StoreLines) * m.DRAMLinePJ / 1e3
	b.OnChipNJ = b.RegisterNJ + b.LHBNJ + b.L1NJ + b.L2NJ
	b.TotalNJ = b.OnChipNJ + b.TensorNJ + b.DRAMNJ
	b.LoadsRemove = uint64(r.LoadsEliminated)
	return b
}

// OnChipSaving returns 1 - duplo/baseline on-chip energy — the §V-H 34.1%
// figure's counterpart.
func OnChipSaving(m Model, base, duplo sim.Result) float64 {
	b, d := Energy(m, base), Energy(m, duplo)
	if b.OnChipNJ == 0 {
		return 0
	}
	return 1 - d.OnChipNJ/b.OnChipNJ
}

// LHBBits returns the storage bits of one LHB entry and the whole buffer.
// An entry holds a tag (32-bit element ID + 10-bit batch ID + 8-bit PID),
// a 10-bit register ID and a valid bit (§IV-B, plus the hashed-index tag
// extension noted in internal/core).
func LHBBits(entries int) (perEntry, total int64) {
	perEntry = 32 + 10 + 8 + 10 + 1
	return perEntry, int64(entries) * perEntry
}

// AreaOverhead returns the LHB area as a fraction of the per-SM register
// file area (sim.RegFileKB) — the §V-H 0.77% figure's counterpart (one LHB
// per SM).
func AreaOverhead(entries int) float64 {
	_, bits := LHBBits(entries)
	lhbBytes := float64(bits) / 8
	rfBytes := float64(sim.RegFileKB) * 1024
	return lhbBytes / rfBytes
}
