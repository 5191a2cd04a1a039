package experiments

import (
	"context"
	"testing"

	"duplo/internal/report"
	"duplo/internal/sim"
)

// TestPooledRunnerReuseHammer drives the quick Fig. 9 grid twice through one
// pooled Runner and then the Fig. 12 associativity grid through the same
// Runner — so every worker's arena is reused across many heterogeneous
// configurations (baseline, four LHB sizes, the oracle, multi-way LHBs) —
// and requires the output byte-identical to a Runner whose simFn is
// sim.RunContext, which ignores the arena and builds fresh simulator state
// for every run. Per-cell results are compared exactly (sim.Result is
// comparable and embeds every Stats counter), so any state leaking from one
// pooled run into the next fails loudly. Runs under -race in CI at Workers
// 1 and 4.
func TestPooledRunnerReuseHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	layers := detLayers(t)
	mk := func(workers int) *Runner {
		opts := QuickOptions()
		opts.Layers = layers
		opts.Workers = workers
		return NewRunner(opts)
	}
	for _, workers := range []int{1, 4} {
		pooled := mk(workers)
		fresh := mk(workers)
		fresh.simFn = func(ctx context.Context, cfg sim.Config, k *sim.Kernel, _ *sim.Arena) (sim.Result, error) {
			return sim.RunContext(ctx, cfg, k)
		}

		run := func(name string, f func(*Runner) (*report.Table, error)) (string, string) {
			t.Helper()
			tp, err := f(pooled)
			if err != nil {
				t.Fatalf("workers=%d %s pooled: %v", workers, name, err)
			}
			tf, err := f(fresh)
			if err != nil {
				t.Fatalf("workers=%d %s fresh: %v", workers, name, err)
			}
			return tp.String(), tf.String()
		}

		// Pass 1: the Fig. 9 grid, pooled vs fresh.
		p1, f1 := run("fig9", (*Runner).Fig9)
		if p1 != f1 {
			t.Errorf("workers=%d: pooled fig9 differs from fresh-state fig9:\n--- pooled ---\n%s\n--- fresh ---\n%s", workers, p1, f1)
		}
		// Pass 2 through the same runners: the table must not drift (the
		// run cache hands back the identical results).
		p2, f2 := run("fig9 again", (*Runner).Fig9)
		if p2 != p1 || f2 != f1 {
			t.Errorf("workers=%d: second fig9 pass drifted", workers)
		}
		// Fig. 12 forces new executions (multi-way LHB configs) through the
		// arenas the Fig. 9 cells already dirtied — the actual reuse hammer.
		p12, f12 := run("fig12", (*Runner).Fig12)
		if p12 != f12 {
			t.Errorf("workers=%d: pooled fig12 differs from fresh-state fig12:\n--- pooled ---\n%s\n--- fresh ---\n%s", workers, p12, f12)
		}
		if pe, fe := pooled.Execs(), fresh.Execs(); pe != fe {
			t.Errorf("workers=%d: pooled runner executed %d simulations, fresh executed %d", workers, pe, fe)
		}

		// Per-cell exactness: every cached headline cell must match the
		// fresh runner's field-for-field (cycle counts, cache stats, LHB
		// counters — sim.Result is a comparable value). The Kernel pointer
		// is identity, not state — each runner constructs its own kernel
		// objects — so it is masked before comparing.
		maskKernel := func(rs ...*sim.Result) {
			for _, r := range rs {
				r.Kernel = nil
			}
		}
		for _, l := range layers {
			bp, err := pooled.Baseline(l)
			if err != nil {
				t.Fatal(err)
			}
			bf, err := fresh.Baseline(l)
			if err != nil {
				t.Fatal(err)
			}
			maskKernel(&bp, &bf)
			if bp != bf {
				t.Errorf("workers=%d %s: pooled baseline result differs from fresh:\npooled: %+v\nfresh:  %+v", workers, l.FullName(), bp, bf)
			}
			dp, err := pooled.Duplo(l, DefaultLHB)
			if err != nil {
				t.Fatal(err)
			}
			df, err := fresh.Duplo(l, DefaultLHB)
			if err != nil {
				t.Fatal(err)
			}
			maskKernel(&dp, &df)
			if dp != df {
				t.Errorf("workers=%d %s: pooled duplo result differs from fresh:\npooled: %+v\nfresh:  %+v", workers, l.FullName(), dp, df)
			}
		}
	}
}
