package experiments

import (
	"fmt"

	"duplo/internal/serving"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// BatchKernel builds the forward GEMM kernel for a layer at an explicit
// batch size, labelled "Net/Layer@b16". Fig. 13's batch sweep, the
// cluster experiment, duplosim -batch and duploserved's batch runs all
// build it here, so their runs share cache and store entries: a cluster
// experiment re-renders warm from a store a fig13 run already filled, and
// vice versa. The run key holds the name as well as the geometry, so the
// "@b8" kernel, whose geometry is Table I's, memoizes apart from Fig. 9's
// cells. Batch 0 keeps Table I's batch and is LayerKernel(l).
func BatchKernel(l workload.Layer, batch int) (*sim.Kernel, error) {
	if batch == 0 {
		return LayerKernel(l)
	}
	lb := l
	lb.Params = l.Params.WithBatch(batch)
	k, err := LayerKernel(lb)
	if err != nil {
		return nil, err
	}
	k.Name = fmt.Sprintf("%s@b%d", lb.FullName(), batch)
	return k, nil
}

// ServingLatencies builds the serving simulator's service-time tables —
// Duplo off (base) and on at the paper's 1024-entry design point (dup) —
// for the given layers at the given batch sizes, through the Runner so
// the memo/store/predictor tiers all apply. Per-layer cycle counts are
// summed per network (one serving request = one forward pass of the
// whole network) and converted to nanoseconds at clockMHz.
//
// On partial simulation failure the returned tables omit every
// (network, batch) point an error touched — a poisoned sum must not
// become a service time — and the *SweepError names the failed cells.
// The tables are byte-identical at any worker count.
func (r *Runner) ServingLatencies(layers []workload.Layer, batches []int, clockMHz int) (base, dup *serving.LatencyTable, err error) {
	if len(batches) == 0 {
		return nil, nil, fmt.Errorf("experiments: ServingLatencies needs at least one batch size")
	}
	if clockMHz <= 0 {
		return nil, nil, fmt.Errorf("experiments: ServingLatencies needs a positive clock rate, got %d MHz", clockMHz)
	}
	// cells[li][bi][d] with d 0=base, 1=duplo.
	nb := len(batches)
	cycles := make([]int64, len(layers)*nb*2)
	errs := r.fanOutAll(len(layers)*nb*2, func(idx int) error {
		li, rest := idx/(nb*2), idx%(nb*2)
		bi, d := rest/2, rest%2
		k, err := BatchKernel(layers[li], batches[bi])
		if err != nil {
			return err
		}
		cfg := r.opts.config()
		if d == 1 {
			cfg.Duplo = true
			cfg.DetectCfg.LHB = DefaultLHB
		}
		res, err := r.Run(k, cfg)
		if err != nil {
			return err
		}
		cycles[idx] = res.Cycles
		mode := "base"
		if d == 1 {
			mode = "duplo"
		}
		r.progress("latency %s b%d %s done", layers[li].FullName(), batches[bi], mode)
		return nil
	})

	base, dup = serving.NewLatencyTable(), serving.NewLatencyTable()
	for _, net := range workload.NetworkNames() {
		for bi, b := range batches {
			for d := 0; d < 2; d++ {
				var sum int64
				ok, present := true, false
				for li, l := range layers {
					if l.Network != net {
						continue
					}
					present = true
					idx := li*nb*2 + bi*2 + d
					if errs[idx] != nil {
						ok = false
						break
					}
					sum += cycles[idx]
				}
				if !present || !ok {
					continue
				}
				t := base
				if d == 1 {
					t = dup
				}
				t.Set(net, b, serving.CyclesToNanos(sum, clockMHz))
			}
		}
	}
	return base, dup, sweepError(errs, func(i int) string {
		li, rest := i/(nb*2), i%(nb*2)
		mode := "base"
		if rest%2 == 1 {
			mode = "duplo"
		}
		return fmt.Sprintf("%s@b%d/%s", layers[li].FullName(), batches[rest/2], mode)
	})
}
