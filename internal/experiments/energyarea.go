package experiments

import (
	"fmt"

	"duplo/internal/energy"
	"duplo/internal/report"
	"duplo/internal/workload"
)

// EnergyArea reproduces §V-H: on-chip energy reduction and LHB area
// overhead relative to the register file (paper: -34.1% energy, +0.77%
// area). The energy model integrates detailed per-event counters, so this
// table is ground-truth-only at every predictor mode (exact run variants;
// DESIGN.md §9).
func (r *Runner) EnergyArea() (*report.Table, error) {
	m := energy.Default12nm()
	uJ := func(nJ float64) string { return fmt.Sprintf("%.1f", nJ/1e3) }
	t, err := r.layerTable("energy", "Section V-H: Energy and area", "Mean", nil,
		[]layerCol{{"Base on-chip (uJ)", uJ, nil}, {"Duplo on-chip (uJ)", uJ, nil},
			{"Saving", report.Pct, mean}, {"DRAM saving", report.Pct, mean}},
		func(l workload.Layer, _ int) ([]float64, float64, error) {
			base, err := r.BaselineExact(l)
			if err != nil {
				return nil, 0, err
			}
			dup, err := r.DuploExact(l, DefaultLHB)
			if err != nil {
				return nil, 0, err
			}
			be, de := energy.Energy(m, base), energy.Energy(m, dup)
			var ds float64
			if be.DRAMNJ > 0 {
				ds = 1 - de.DRAMNJ/be.DRAMNJ
			}
			return []float64{be.OnChipNJ, de.OnChipNJ, energy.OnChipSaving(m, base, dup), ds},
				predErrOf(base, dup), nil
		})
	perEntry, totalBits := energy.LHBBits(1024)
	t.AddRowCells([]string{"", "", "", "", ""})
	t.AddRowCells([]string{fmt.Sprintf("LHB: %d bits/entry, %d KB total", perEntry, totalBits/8/1024), "",
		fmt.Sprintf("area overhead vs 256KB RF: %s", report.PctU(energy.AreaOverhead(m, 1024))), "", ""})
	return t, err
}
