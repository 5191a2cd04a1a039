package experiments

import (
	"fmt"

	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// networkCycles estimates full-network execution time (in baseline cycles,
// scaled from the simulated CTA prefix to the whole grid) for one pass.
// The per-GEMM simulations fan out on the worker pool; the total is summed
// in kernel order so the float result is bit-identical at any Workers.
// predErr reports the worst predicted error among contributing GEMMs
// (predErrOf convention: -1 when every GEMM is ground truth).
func (r *Runner) networkCycles(layers []workload.Layer, training, duploOn bool) (total, predErr float64, err error) {
	cfg := r.opts.config()
	cfg.Duplo = duploOn
	cfg.DetectCfg.LHB = DefaultLHB
	var gemms []workload.TrainingGemm
	for _, l := range layers {
		gs := workload.TrainingGemms(l)
		if !training {
			gs = gs[:1] // the forward GEMM, which is Fig. 9's cell
		}
		gemms = append(gemms, gs...)
	}
	cycles := make([]float64, len(gemms))
	preds := make([]float64, len(gemms))
	err = r.fanOut(len(gemms), func(i int) error {
		g := gemms[i]
		var k *sim.Kernel
		var err error
		if g.Conv != nil {
			k, err = sim.NewConvKernel(g.Name, *g.Conv)
		} else {
			k, err = sim.NewGemmKernel(g.Name, g.M, g.N, g.K)
		}
		if err != nil {
			return err
		}
		res, err := r.Run(k, cfg)
		if err != nil {
			return err
		}
		// Scale the simulated CTA prefix to the full grid.
		scale := float64(res.TotalCTAs) / float64(res.SimulatedCTAs)
		cycles[i] = float64(res.Cycles) * scale
		preds[i] = predErrOf(res)
		r.progress("fig14 %s done (duplo=%v)", g.Name, duploOn)
		return nil
	})
	if err != nil {
		return 0, -1, err
	}
	predErr = -1
	for i, c := range cycles {
		total += c
		if preds[i] > predErr {
			predErr = preds[i]
		}
	}
	return total, predErr, nil
}

// Fig14 reproduces Figure 14: network-level execution time of baseline (B)
// and Duplo (D) for inference and training, normalized to the baseline.
// Training improves less than inference because the weight-gradient GEMM
// has no lowered workspace for Duplo to deduplicate. A failed
// (network, pass) cell renders "ERR" and poisons only its own Mean row.
func (r *Runner) Fig14() (*report.Table, error) {
	t := report.NewTable("Figure 14: Network-level normalized execution time (lower is better)",
		"Network", "Pass", "Baseline", "Duplo", "Reduction")
	var inferImps, trainImps []float64
	var errs []error
	var labels []string
	var preds []float64
	inferFailed, trainFailed := false, false
	inferPred, trainPred := false, false
	for _, name := range workload.NetworkNames() {
		layers := workload.Networks()[name]
		for _, training := range []bool{false, true} {
			pass := "Infer."
			if training {
				pass = "Train."
			}
			labels = append(labels, name+"/"+pass)
			base, basePE, err := r.networkCycles(layers, training, false)
			if err == nil {
				var dup, dupPE float64
				dup, dupPE, err = r.networkCycles(layers, training, true)
				if err == nil {
					pe := basePE
					if dupPE > pe {
						pe = dupPE
					}
					preds = append(preds, pe)
					if pe >= 0 {
						if training {
							trainPred = true
						} else {
							inferPred = true
						}
					}
					red := 1 - dup/base
					if training {
						trainImps = append(trainImps, red)
					} else {
						inferImps = append(inferImps, red)
					}
					t.AddRowCells([]string{name, pass, "1.00",
						markPred(fmt.Sprintf("%.2f", dup/base), pe), markPred(report.Pct(red), pe)})
				}
			}
			errs = append(errs, err)
			if err != nil {
				if training {
					trainFailed = true
				} else {
					inferFailed = true
				}
				t.AddRowCells([]string{name, pass, "1.00", errCell, errCell})
			}
		}
	}
	t.AddRowCells([]string{"Mean", "Infer.", "1.00", "", footerCell(inferFailed, inferPred, report.Pct(mean(inferImps)))})
	t.AddRowCells([]string{"Mean", "Train.", "1.00", "", footerCell(trainFailed, trainPred, report.Pct(mean(trainImps)))})
	predNote(t, preds)
	return t, sweepError(errs, func(i int) string { return labels[i] })
}
