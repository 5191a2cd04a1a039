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

// cycleCell renders a cycle count.
func cycleCell(v float64) string { return fmt.Sprint(int64(v)) }

// AblationLatency reproduces the §IV-A sensitivity: a 3-cycle detection
// unit costs only ~0.9% versus the 2-cycle design.
func (r *Runner) AblationLatency() (*report.Table, error) {
	return r.layerTable("latency", "Ablation: detection-unit latency (§IV-A)", "Mean", nil,
		[]layerCol{{"2-cycle", report.Pct, nil}, {"3-cycle", report.Pct, nil}, {"Delta", report.Pct, mean}},
		func(l workload.Layer, _ int) ([]float64, float64, error) {
			base, err := r.BaselineExact(l)
			if err != nil {
				return nil, 0, err
			}
			k, err := LayerKernel(l)
			if err != nil {
				return nil, 0, err
			}
			var dup [2]sim.Result
			for i, lat := range []int{2, 3} {
				cfg := r.opts.config()
				cfg.Duplo = true
				cfg.DetectCfg.LHB = DefaultLHB
				cfg.DetectCfg.LatencyCycles = lat
				if dup[i], err = r.RunExact(k, cfg); err != nil {
					return nil, 0, err
				}
			}
			i2, i3 := sim.Speedup(base, dup[0]), sim.Speedup(base, dup[1])
			return []float64{i2, i3, i2 - i3}, predErrOf(base, dup[0], dup[1]), nil
		})
}

// AblationSharedMem reproduces the §II-C baseline study: which GEMM
// operands to stage in shared memory. C-only allows 3 concurrent CTAs and
// wins (the paper reports +29.7% over all-in-shared).
func (r *Runner) AblationSharedMem() (*report.Table, error) {
	return r.layerTable("smem", "Ablation: shared-memory operand placement (§II-C)", "Mean", nil,
		[]layerCol{{"A+B+C (1 CTA)", cycleCell, nil}, {"A+C (2 CTAs)", cycleCell, nil},
			{"C-only (3 CTAs)", cycleCell, nil}, {"C-only vs A+B+C", report.Pct, mean}},
		func(l workload.Layer, _ int) ([]float64, float64, error) {
			var c []float64
			var runs []sim.Result
			for _, v := range []sim.SharedVariant{sim.SharedABC, sim.SharedAC, sim.SharedCOnly} {
				k, err := LayerKernel(l)
				if err != nil {
					return nil, 0, err
				}
				k.Variant = v
				res, err := r.RunExact(k, r.opts.config())
				if err != nil {
					return nil, 0, err
				}
				c = append(c, float64(res.Cycles))
				runs = append(runs, res)
			}
			return append(c, c[0]/c[2]-1), predErrOf(runs...), nil
		})
}

// AblationCacheScaling reproduces the §V-D claim: even 16x L1 and 4x L2
// buy only ~1.8% — bigger caches are not the answer.
func (r *Runner) AblationCacheScaling() (*report.Table, error) {
	return r.layerTable("cache", "Ablation: cache scaling without Duplo (§V-D)", "Mean", nil,
		[]layerCol{{"Baseline cyc", cycleCell, nil}, {"16xL1+4xL2 cyc", cycleCell, nil}, {"Gain", report.Pct, mean}},
		func(l workload.Layer, _ int) ([]float64, float64, error) {
			base, err := r.BaselineExact(l)
			if err != nil {
				return nil, 0, err
			}
			k, err := LayerKernel(l)
			if err != nil {
				return nil, 0, err
			}
			cfg := r.opts.config()
			cfg.L1KB *= 16
			cfg.L2KB *= 4
			big, err := r.RunExact(k, cfg)
			if err != nil {
				return nil, 0, err
			}
			b, g := float64(base.Cycles), float64(big.Cycles)
			return []float64{b, g, b/g - 1}, predErrOf(base, big), nil
		})
}

// AblationEviction quantifies the §V-C analysis: the gap between the
// retire-based eviction (the implementable design), the oracle, and a
// never-evict buffer approaching the theoretical duplication limit.
func (r *Runner) AblationEviction() (*report.Table, error) {
	points := []struct {
		name string
		cfg  duplo.LHBConfig
	}{
		{"1024 direct", DefaultLHB},
		{"Oracle (retire-evict)", duplo.LHBConfig{Oracle: true}},
		{"Never-evict (limit)", duplo.LHBConfig{Oracle: true, NeverEvict: true}},
	}
	var names []string
	var cols []layerCol
	for _, p := range points {
		names = append(names, p.name)
		cols = append(cols, layerCol{p.name + " hit", report.PctU, mean},
			layerCol{p.name + " imp", report.Pct, gmeanImprovement})
	}
	return r.layerTable("evict", "Ablation: LHB eviction policy (§V-C)", "Mean/Gmean", names, cols,
		func(l workload.Layer, pi int) ([]float64, float64, error) {
			base, err := r.BaselineExact(l)
			if err != nil {
				return nil, 0, err
			}
			dup, err := r.DuploExact(l, points[pi].cfg)
			if err != nil {
				return nil, 0, err
			}
			return []float64{dup.LHBHitRate(), sim.Speedup(base, dup)}, predErrOf(base, dup), nil
		})
}

// AblationIndexing compares the default XOR-fold hashed LHB index with the
// plain modulo the Table II example implies (see internal/core): modulo
// collapses power-of-two ID strides onto a few sets.
func (r *Runner) AblationIndexing() (*report.Table, error) {
	return r.layerTable("index", "Ablation: LHB index hashing", "Gmean", nil,
		[]layerCol{{"Hashed hit", report.PctU, nil}, {"Modulo hit", report.PctU, nil},
			{"Hashed imp", report.Pct, gmeanImprovement}, {"Modulo imp", report.Pct, gmeanImprovement}},
		func(l workload.Layer, _ int) ([]float64, float64, error) {
			base, err := r.BaselineExact(l)
			if err != nil {
				return nil, 0, err
			}
			hash, err := r.DuploExact(l, DefaultLHB)
			if err != nil {
				return nil, 0, err
			}
			mod, err := r.DuploExact(l, duplo.LHBConfig{Entries: 1024, Ways: 1, ModuloIndex: true})
			if err != nil {
				return nil, 0, err
			}
			return []float64{hash.LHBHitRate(), mod.LHBHitRate(), sim.Speedup(base, hash), sim.Speedup(base, mod)},
				predErrOf(base, hash, mod), nil
		})
}
