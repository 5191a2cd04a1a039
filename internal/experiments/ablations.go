package experiments

import (
	"fmt"

	duplo "duplo/internal/core"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// The ablations below use the exact run variants only: they probe design
// axes (detection latency, operand placement, cache scaling, eviction
// policy, index hashing) the calibrated predictor never saw move, so
// their tables are documented as ground-truth-only at every predictor
// mode (DESIGN.md §9).

// AblationLatency reproduces the §IV-A sensitivity: a 3-cycle detection
// unit costs only ~0.9% versus the 2-cycle design.
func (r *Runner) AblationLatency() (*report.Table, error) {
	layers := r.opts.layers()
	t := report.NewTable("Ablation: detection-unit latency (§IV-A)",
		"Layer", "2-cycle", "3-cycle", "Delta")
	type row struct{ i2, i3 float64 }
	rows := make([]row, len(layers))
	errs := r.forEachLayer(layers, func(i int, l workload.Layer) error {
		base, err := r.BaselineExact(l)
		if err != nil {
			return err
		}
		k, err := LayerKernel(l)
		if err != nil {
			return err
		}
		imp := func(lat int) (float64, error) {
			cfg := r.opts.config()
			cfg.Duplo = true
			cfg.DetectCfg.LHB = DefaultLHB
			cfg.DetectCfg.LatencyCycles = lat
			res, err := r.RunExact(k, cfg)
			if err != nil {
				return 0, err
			}
			return sim.Speedup(base, res), nil
		}
		i2, err := imp(2)
		if err != nil {
			return err
		}
		i3, err := imp(3)
		if err != nil {
			return err
		}
		rows[i] = row{i2, i3}
		r.progress("latency %s done", l.FullName())
		return nil
	})
	var deltas []float64
	failed := false
	for i, l := range layers {
		if errs[i] != nil {
			failed = true
			t.AddRowCells([]string{l.FullName(), errCell, errCell, errCell})
			continue
		}
		i2, i3 := rows[i].i2, rows[i].i3
		deltas = append(deltas, i2-i3)
		t.AddRowCells([]string{l.FullName(), report.Pct(i2), report.Pct(i3), report.Pct(i2 - i3)})
	}
	t.AddRowCells([]string{"Mean", "", "", footerCell(failed, report.Pct(mean(deltas)))})
	return t, sweepError("lat", errs, func(i int) string { return layers[i].FullName() })
}

// AblationSharedMem reproduces the §II-C baseline study: which GEMM
// operands to stage in shared memory. C-only allows 3 concurrent CTAs and
// wins (the paper reports +29.7% over all-in-shared).
func (r *Runner) AblationSharedMem() (*report.Table, error) {
	layers := r.opts.layers()
	t := report.NewTable("Ablation: shared-memory operand placement (§II-C)",
		"Layer", "A+B+C (1 CTA)", "A+C (2 CTAs)", "C-only (3 CTAs)", "C-only vs A+B+C")
	variants := []sim.SharedVariant{sim.SharedABC, sim.SharedAC, sim.SharedCOnly}
	cycles := make([][]int64, len(layers))
	for i := range cycles {
		cycles[i] = make([]int64, len(variants))
	}
	errs := r.fanOutAll(len(layers)*len(variants), func(idx int) error {
		li, vi := idx/len(variants), idx%len(variants)
		l, v := layers[li], variants[vi]
		k, err := LayerKernel(l)
		if err != nil {
			return err
		}
		k.Variant = v
		res, err := r.RunExact(k, r.opts.config())
		if err != nil {
			return err
		}
		cycles[li][vi] = res.Cycles
		r.progress("smem %s %s done", l.FullName(), v)
		return nil
	})
	var gains []float64
	failed := false
	for li, l := range layers {
		// The gain column relates the first and last variant, so any failed
		// variant cell degrades the whole layer row.
		if errs[3*li] != nil || errs[3*li+1] != nil || errs[3*li+2] != nil {
			failed = true
			t.AddRowCells([]string{l.FullName(), errCell, errCell, errCell, errCell})
			continue
		}
		c := cycles[li]
		gain := float64(c[0])/float64(c[2]) - 1
		gains = append(gains, gain)
		t.AddRowCells([]string{l.FullName(),
			fmt.Sprint(c[0]), fmt.Sprint(c[1]), fmt.Sprint(c[2]),
			report.Pct(gain)})
	}
	t.AddRowCells([]string{"Mean", "", "", "", footerCell(failed, report.Pct(mean(gains)))})
	return t, sweepError("smem", errs, gridLabel(layers, len(variants),
		func(vi int) string { return variants[vi].String() }))
}

// AblationCacheScaling reproduces the §V-D claim: even 16x L1 and 4x L2
// buy only ~1.8% — bigger caches are not the answer.
func (r *Runner) AblationCacheScaling() (*report.Table, error) {
	layers := r.opts.layers()
	t := report.NewTable("Ablation: cache scaling without Duplo (§V-D)",
		"Layer", "Baseline cyc", "16xL1+4xL2 cyc", "Gain")
	type row struct{ base, big int64 }
	rows := make([]row, len(layers))
	errs := r.forEachLayer(layers, func(i int, l workload.Layer) error {
		base, err := r.BaselineExact(l)
		if err != nil {
			return err
		}
		k, err := LayerKernel(l)
		if err != nil {
			return err
		}
		cfg := r.opts.config()
		cfg.L1KB *= 16
		cfg.L2KB *= 4
		big, err := r.RunExact(k, cfg)
		if err != nil {
			return err
		}
		rows[i] = row{base.Cycles, big.Cycles}
		r.progress("cache %s done", l.FullName())
		return nil
	})
	var gains []float64
	failed := false
	for i, l := range layers {
		if errs[i] != nil {
			failed = true
			t.AddRowCells([]string{l.FullName(), errCell, errCell, errCell})
			continue
		}
		gain := float64(rows[i].base)/float64(rows[i].big) - 1
		gains = append(gains, gain)
		t.AddRowCells([]string{l.FullName(), fmt.Sprint(rows[i].base), fmt.Sprint(rows[i].big), report.Pct(gain)})
	}
	t.AddRowCells([]string{"Mean", "", "", footerCell(failed, report.Pct(mean(gains)))})
	return t, sweepError("cache", errs, func(i int) string { return layers[i].FullName() })
}

// AblationEviction quantifies the §V-C analysis: the gap between the
// retire-based eviction (the implementable design), the oracle, and a
// never-evict buffer approaching the theoretical duplication limit.
func (r *Runner) AblationEviction() (*report.Table, error) {
	layers := r.opts.layers()
	points := []struct {
		name string
		cfg  duplo.LHBConfig
	}{
		{"1024 direct", DefaultLHB},
		{"Oracle (retire-evict)", duplo.LHBConfig{Oracle: true}},
		{"Never-evict (limit)", duplo.LHBConfig{Oracle: true, NeverEvict: true}},
	}
	headers := []string{"Layer"}
	for _, p := range points {
		headers = append(headers, p.name+" hit", p.name+" imp")
	}
	t := report.NewTable("Ablation: LHB eviction policy (§V-C)", headers...)
	type cell struct{ hit, imp float64 }
	cells := make([][]cell, len(layers))
	for i := range cells {
		cells[i] = make([]cell, len(points))
	}
	errs := r.fanOutAll(len(layers)*len(points), func(idx int) error {
		li, pi := idx/len(points), idx%len(points)
		l := layers[li]
		base, err := r.BaselineExact(l)
		if err != nil {
			return err
		}
		dup, err := r.DuploExact(l, points[pi].cfg)
		if err != nil {
			return err
		}
		cells[li][pi] = cell{dup.LHBHitRate(), sim.Speedup(base, dup)}
		r.progress("evict %s %s done", l.FullName(), points[pi].name)
		return nil
	})
	agg := make([][]float64, 2*len(points))
	colErr := make([]bool, len(points))
	for li, l := range layers {
		row := []string{l.FullName()}
		for pi := range points {
			if errs[li*len(points)+pi] != nil {
				colErr[pi] = true
				row = append(row, errCell, errCell)
				continue
			}
			c := cells[li][pi]
			agg[2*pi] = append(agg[2*pi], c.hit)
			agg[2*pi+1] = append(agg[2*pi+1], c.imp)
			row = append(row, report.PctU(c.hit), report.Pct(c.imp))
		}
		t.AddRowCells(row)
	}
	g := []string{"Mean/Gmean"}
	for i := range points {
		g = append(g,
			footerCell(colErr[i], report.PctU(mean(agg[2*i]))),
			footerCell(colErr[i], report.Pct(gmeanImprovement(agg[2*i+1]))))
	}
	t.AddRowCells(g)
	return t, sweepError("evict", errs, gridLabel(layers, len(points),
		func(pi int) string { return points[pi].name }))
}

// AblationIndexing compares the default XOR-fold hashed LHB index with the
// plain modulo the Table II example implies (see internal/core): modulo
// collapses power-of-two ID strides onto a few sets.
func (r *Runner) AblationIndexing() (*report.Table, error) {
	layers := r.opts.layers()
	t := report.NewTable("Ablation: LHB index hashing",
		"Layer", "Hashed hit", "Modulo hit", "Hashed imp", "Modulo imp")
	type row struct {
		hashHit, modHit, ih, im float64
	}
	rows := make([]row, len(layers))
	errs := r.forEachLayer(layers, func(i int, l workload.Layer) error {
		base, err := r.BaselineExact(l)
		if err != nil {
			return err
		}
		hash, err := r.DuploExact(l, DefaultLHB)
		if err != nil {
			return err
		}
		mod, err := r.DuploExact(l, duplo.LHBConfig{Entries: 1024, Ways: 1, ModuloIndex: true})
		if err != nil {
			return err
		}
		rows[i] = row{hash.LHBHitRate(), mod.LHBHitRate(), sim.Speedup(base, hash), sim.Speedup(base, mod)}
		r.progress("index %s done", l.FullName())
		return nil
	})
	var dh, dm []float64
	failed := false
	for i, l := range layers {
		if errs[i] != nil {
			failed = true
			t.AddRowCells([]string{l.FullName(), errCell, errCell, errCell, errCell})
			continue
		}
		dh = append(dh, rows[i].ih)
		dm = append(dm, rows[i].im)
		t.AddRowCells([]string{l.FullName(),
			report.PctU(rows[i].hashHit), report.PctU(rows[i].modHit),
			report.Pct(rows[i].ih), report.Pct(rows[i].im)})
	}
	t.AddRowCells([]string{"Gmean", "", "",
		footerCell(failed, report.Pct(gmeanImprovement(dh))),
		footerCell(failed, report.Pct(gmeanImprovement(dm)))})
	return t, sweepError("index", errs, func(i int) string { return layers[i].FullName() })
}
