package experiments

import (
	"fmt"

	duplo "duplo/internal/core"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// Fig9 reproduces Figure 9: per-layer performance improvement of Duplo over
// the baseline for variable-sized LHBs (256 to 2048 entries plus the
// oracle), ending with the gmean row. The layer x size sweep fans out on
// the worker pool; rows are assembled in Table I order. On partial
// failure the table is still returned (failed cells render "ERR")
// alongside a *SweepError naming them.
func (r *Runner) Fig9() (*report.Table, error) {
	layers := r.opts.layers()
	headers := []string{"Layer"}
	for _, p := range LHBPoints {
		headers = append(headers, p.Name)
	}
	t := report.NewTable("Figure 9: Performance improvement vs LHB size", headers...)
	imps := make([][]float64, len(layers))
	preds := predMatrix(len(layers), len(LHBPoints))
	for i := range imps {
		imps[i] = make([]float64, len(LHBPoints))
	}
	errs := r.fanOutAll(len(layers)*len(LHBPoints), func(idx int) error {
		li, pi := idx/len(LHBPoints), idx%len(LHBPoints)
		l := layers[li]
		base, err := r.Baseline(l)
		if err != nil {
			return err
		}
		dup, err := r.Duplo(l, LHBPoints[pi].Cfg)
		if err != nil {
			return err
		}
		imps[li][pi] = sim.Speedup(base, dup)
		preds[li][pi] = predErrOf(base, dup)
		r.progress("fig9 %s %s done", l.FullName(), LHBPoints[pi].Name)
		return nil
	})
	renderGrid(t, layers, len(LHBPoints), errs, imps, preds, report.Pct, "Gmean", gmeanImprovement)
	return t, sweepError("fig9", errs, gridLabel(layers, len(LHBPoints),
		func(pi int) string { return LHBPoints[pi].Name }))
}

// Fig10 reproduces Figure 10: LHB hit rate per layer for the same sweep.
func (r *Runner) Fig10() (*report.Table, error) {
	layers := r.opts.layers()
	headers := []string{"Layer"}
	for _, p := range LHBPoints {
		headers = append(headers, p.Name)
	}
	t := report.NewTable("Figure 10: LHB hit rate vs size", headers...)
	rates := make([][]float64, len(layers))
	preds := predMatrix(len(layers), len(LHBPoints))
	for i := range rates {
		rates[i] = make([]float64, len(LHBPoints))
	}
	errs := r.fanOutAll(len(layers)*len(LHBPoints), func(idx int) error {
		li, pi := idx/len(LHBPoints), idx%len(LHBPoints)
		dup, err := r.Duplo(layers[li], LHBPoints[pi].Cfg)
		if err != nil {
			return err
		}
		rates[li][pi] = dup.LHBHitRate()
		preds[li][pi] = predErrOf(dup)
		r.progress("fig10 %s %s done", layers[li].FullName(), LHBPoints[pi].Name)
		return nil
	})
	renderGrid(t, layers, len(LHBPoints), errs, rates, preds, report.PctU, "Mean", mean)
	return t, sweepError("fig10", errs, gridLabel(layers, len(LHBPoints),
		func(pi int) string { return LHBPoints[pi].Name }))
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
	errs := r.forEachLayer(layers, func(i int, l workload.Layer) error {
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
	meanMark := func(s string) string {
		if anyPred {
			return s + predictedMark
		}
		return s
	}
	if failed {
		t.AddRowCells([]string{"Mean", "", "", "", "", "", errCell, errCell, errCell})
	} else {
		t.AddRowCells([]string{"Mean", "", "", "", "", "",
			meanMark(report.Pct(mean(dDRAM))), meanMark(report.Pct(mean(dL1))), meanMark(report.Pct(mean(dL2)))})
	}
	predNote(t, preds)
	return t, sweepError("fig11", errs, func(i int) string { return layers[i].FullName() })
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
	layers := r.opts.layers()
	ways := []int{1, 2, 4, 8}
	headers := []string{"Layer"}
	for _, w := range ways {
		if w == 1 {
			headers = append(headers, "Direct")
		} else {
			headers = append(headers, fmt.Sprintf("%d-way", w))
		}
	}
	t := report.NewTable("Figure 12: Performance improvement vs LHB associativity (1024 entries)", headers...)
	imps := make([][]float64, len(layers))
	preds := predMatrix(len(layers), len(ways))
	for i := range imps {
		imps[i] = make([]float64, len(ways))
	}
	errs := r.fanOutAll(len(layers)*len(ways), func(idx int) error {
		li, wi := idx/len(ways), idx%len(ways)
		l := layers[li]
		// Associative cells are outside the calibrated envelope (the fit
		// never saw Ways > 1), so they always simulate.
		base, err := r.Baseline(l)
		if err != nil {
			return err
		}
		dup, err := r.Duplo(l, duplo.LHBConfig{Entries: 1024, Ways: ways[wi]})
		if err != nil {
			return err
		}
		imps[li][wi] = sim.Speedup(base, dup)
		preds[li][wi] = predErrOf(base, dup)
		r.progress("fig12 %s %d-way done", l.FullName(), ways[wi])
		return nil
	})
	renderGrid(t, layers, len(ways), errs, imps, preds, report.Pct, "Gmean", gmeanImprovement)
	return t, sweepError("fig12", errs, gridLabel(layers, len(ways),
		func(wi int) string { return fmt.Sprintf("%d-way", ways[wi]) }))
}

// Fig13 reproduces Figure 13: Duplo's improvement with batch sizes 8, 16
// and 32 (1024-entry LHB). Larger batches enlarge the workspace without
// adding cross-image duplication, so the fixed-size LHB covers a smaller
// fraction (§V-F).
func (r *Runner) Fig13() (*report.Table, error) {
	layers := r.opts.layers()
	batches := []int{8, 16, 32}
	headers := []string{"Layer"}
	for _, b := range batches {
		headers = append(headers, fmt.Sprintf("Batch %d", b))
	}
	t := report.NewTable("Figure 13: Performance improvement vs batch size (1024-entry LHB)", headers...)
	imps := make([][]float64, len(layers))
	preds := predMatrix(len(layers), len(batches))
	for i := range imps {
		imps[i] = make([]float64, len(batches))
	}
	errs := r.fanOutAll(len(layers)*len(batches), func(idx int) error {
		li, bi := idx/len(batches), idx%len(batches)
		l, b := layers[li], batches[bi]
		k, err := BatchKernel(l, b)
		if err != nil {
			return err
		}
		cfg := r.opts.config()
		base, err := r.Run(k, cfg)
		if err != nil {
			return err
		}
		cfg.Duplo = true
		cfg.DetectCfg.LHB = DefaultLHB
		dup, err := r.Run(k, cfg)
		if err != nil {
			return err
		}
		imps[li][bi] = sim.Speedup(base, dup)
		preds[li][bi] = predErrOf(base, dup)
		r.progress("fig13 %s b%d done", l.FullName(), b)
		return nil
	})
	renderGrid(t, layers, len(batches), errs, imps, preds, report.Pct, "Gmean", gmeanImprovement)
	return t, sweepError("fig13", errs, gridLabel(layers, len(batches),
		func(bi int) string { return fmt.Sprintf("b%d", batches[bi]) }))
}
