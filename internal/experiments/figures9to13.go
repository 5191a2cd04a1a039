package experiments

import (
	"fmt"

	duplo "duplo/internal/core"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// lhbNames names the Fig. 9/10 sweep's LHB points, in order.
func lhbNames() []string {
	names := make([]string, len(LHBPoints))
	for i, p := range LHBPoints {
		names[i] = p.Name
	}
	return names
}

// Fig9 reproduces Figure 9: per-layer performance improvement of Duplo over
// the baseline for variable-sized LHBs (256 to 2048 entries plus the
// oracle), ending with the gmean row. On partial failure the table is
// still returned (failed cells render "ERR") alongside a *SweepError
// naming them.
func (r *Runner) Fig9() (*report.Table, error) {
	names := lhbNames()
	return r.layerTable("fig9", "Figure 9: Performance improvement vs LHB size", "Gmean",
		names, taskCols(names, report.Pct, gmeanImprovement),
		func(l workload.Layer, pi int) ([]float64, float64, error) {
			base, err := r.Baseline(l)
			if err != nil {
				return nil, 0, err
			}
			dup, err := r.Duplo(l, LHBPoints[pi].Cfg)
			if err != nil {
				return nil, 0, err
			}
			return []float64{sim.Speedup(base, dup)}, predErrOf(base, dup), nil
		})
}

// Fig10 reproduces Figure 10: LHB hit rate per layer for the same sweep.
func (r *Runner) Fig10() (*report.Table, error) {
	names := lhbNames()
	return r.layerTable("fig10", "Figure 10: LHB hit rate vs size", "Mean",
		names, taskCols(names, report.PctU, mean),
		func(l workload.Layer, pi int) ([]float64, float64, error) {
			dup, err := r.Duplo(l, LHBPoints[pi].Cfg)
			if err != nil {
				return nil, 0, err
			}
			return []float64{dup.LHBHitRate()}, predErrOf(dup), nil
		})
}

// fig11Row carries one layer's pre-rendered baseline/Duplo rows and its
// traffic deltas from a worker to the in-order assembly loop.
type fig11Row struct {
	baseCells, dupCells []string
	dDRAM, dL1, dL2     float64
}

// Fig11 reproduces Figure 11: the breakdown of which memory-hierarchy level
// services load data, baseline (B) vs Duplo with a 1024-entry LHB (D), plus
// the traffic deltas the paper quotes (§V-D: DRAM -26.6%, L1 -28.1%,
// L2 -19.2% on average).
func (r *Runner) Fig11() (*report.Table, error) {
	layers := r.opts.layers()
	t := report.NewTable("Figure 11: Memory service breakdown (B=baseline, D=Duplo 1024)",
		"Layer", "Cfg", "LHB", "L1$", "L2$", "DRAM", "dDRAM", "dL1svc", "dL2svc")
	rows := make([]fig11Row, len(layers))
	preds := make([]float64, len(layers))
	for i := range preds {
		preds[i] = -1
	}
	errs := r.fanOutAll(len(layers), func(i int) error {
		l := layers[i]
		base, err := r.Baseline(l)
		if err != nil {
			return err
		}
		dup, err := r.Duplo(l, DefaultLHB)
		if err != nil {
			return err
		}
		pe := predErrOf(base, dup)
		preds[i] = pe
		mark := func(s string) string { return markPred(s, pe) }
		bb := base.ServiceBreakdown()
		db := dup.ServiceBreakdown()
		rd := ratioDelta(dup.DRAMLines, base.DRAMLines)
		// "Data services" deltas, like §V-D (not tag probes — Duplo still
		// probes the L1 in parallel with the LHB).
		rl1 := ratioDelta(dup.ServiceLines[sim.ServiceL1], base.ServiceLines[sim.ServiceL1])
		rl2 := ratioDelta(dup.ServiceLines[sim.ServiceL2], base.ServiceLines[sim.ServiceL2])
		rows[i] = fig11Row{
			baseCells: []string{l.FullName(), "B",
				mark(report.PctU(bb[sim.ServiceLHB])), mark(report.PctU(bb[sim.ServiceL1])),
				mark(report.PctU(bb[sim.ServiceL2])), mark(report.PctU(bb[sim.ServiceDRAM])), "", "", ""},
			dupCells: []string{"", "D",
				mark(report.PctU(db[sim.ServiceLHB])), mark(report.PctU(db[sim.ServiceL1])),
				mark(report.PctU(db[sim.ServiceL2])), mark(report.PctU(db[sim.ServiceDRAM])),
				mark(report.Pct(rd)), mark(report.Pct(rl1)), mark(report.Pct(rl2))},
			dDRAM: rd, dL1: rl1, dL2: rl2,
		}
		r.progress("fig11 %s done", l.FullName())
		return nil
	})
	var dDRAM, dL1, dL2 []float64
	failed, anyPred := false, false
	for i, row := range rows {
		if errs[i] != nil {
			failed = true
			t.AddRowCells([]string{layers[i].FullName(), "B",
				errCell, errCell, errCell, errCell, "", "", ""})
			t.AddRowCells([]string{"", "D",
				errCell, errCell, errCell, errCell, errCell, errCell, errCell})
			continue
		}
		if preds[i] >= 0 {
			anyPred = true
		}
		t.AddRowCells(row.baseCells)
		t.AddRowCells(row.dupCells)
		dDRAM = append(dDRAM, row.dDRAM)
		dL1 = append(dL1, row.dL1)
		dL2 = append(dL2, row.dL2)
	}
	t.AddRowCells([]string{"Mean", "", "", "", "", "",
		footerCell(failed, anyPred, report.Pct(mean(dDRAM))),
		footerCell(failed, anyPred, report.Pct(mean(dL1))),
		footerCell(failed, anyPred, report.Pct(mean(dL2)))})
	predNote(t, preds)
	return t, sweepError(errs, func(i int) string { return layers[i].FullName() })
}

func ratioDelta(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a)/float64(b) - 1
}

// Fig12 reproduces Figure 12: set-associative LHBs (1024 entries total) vs
// the direct-mapped default. The paper finds 8-way buys only ~3.6%.
func (r *Runner) Fig12() (*report.Table, error) {
	ways := []int{1, 2, 4, 8}
	tasks := make([]string, len(ways))
	headers := []string{"Direct"}
	for i, w := range ways {
		tasks[i] = fmt.Sprintf("%d-way", w)
		if w > 1 {
			headers = append(headers, tasks[i])
		}
	}
	return r.layerTable("fig12", "Figure 12: Performance improvement vs LHB associativity (1024 entries)", "Gmean",
		tasks, taskCols(headers, report.Pct, gmeanImprovement),
		func(l workload.Layer, wi int) ([]float64, float64, error) {
			// Associative cells are outside the calibrated envelope (the
			// fit never saw Ways > 1), so they always simulate.
			base, err := r.Baseline(l)
			if err != nil {
				return nil, 0, err
			}
			dup, err := r.Duplo(l, duplo.LHBConfig{Entries: 1024, Ways: ways[wi]})
			if err != nil {
				return nil, 0, err
			}
			return []float64{sim.Speedup(base, dup)}, predErrOf(base, dup), nil
		})
}

// Fig13 reproduces Figure 13: Duplo's improvement with batch sizes 8, 16
// and 32 (1024-entry LHB). Larger batches enlarge the workspace without
// adding cross-image duplication, so the fixed-size LHB covers a smaller
// fraction (§V-F).
func (r *Runner) Fig13() (*report.Table, error) {
	batches := []int{8, 16, 32}
	tasks := make([]string, len(batches))
	headers := make([]string, len(batches))
	for i, b := range batches {
		tasks[i], headers[i] = fmt.Sprintf("b%d", b), fmt.Sprintf("Batch %d", b)
	}
	return r.layerTable("fig13", "Figure 13: Performance improvement vs batch size (1024-entry LHB)", "Gmean",
		tasks, taskCols(headers, report.Pct, gmeanImprovement),
		func(l workload.Layer, bi int) ([]float64, float64, error) {
			k, err := BatchKernel(l, batches[bi])
			if err != nil {
				return nil, 0, err
			}
			cfg := r.opts.config()
			base, err := r.Run(k, cfg)
			if err != nil {
				return nil, 0, err
			}
			cfg.Duplo = true
			cfg.DetectCfg.LHB = DefaultLHB
			dup, err := r.Run(k, cfg)
			if err != nil {
				return nil, 0, err
			}
			return []float64{sim.Speedup(base, dup)}, predErrOf(base, dup), nil
		})
}
