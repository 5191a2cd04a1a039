package experiments

import (
	"sync"
	"testing"

	"duplo/internal/conv"
	duplo "duplo/internal/core"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// detLayers is the determinism-test subset: a duplication-rich stride-1
// layer, a strided layer, and a GAN transposed layer.
func detLayers(tb testing.TB) []workload.Layer {
	tb.Helper()
	var out []workload.Layer
	for _, id := range [][2]string{{"ResNet", "C2"}, {"ResNet", "C3"}, {"GAN", "TC4"}} {
		l, err := workload.Find(id[0], id[1])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

// TestParallelDeterminism renders Figs. 9-12 with Workers=1 (the serial
// path) and Workers=8 at QuickOptions scale and requires byte-identical
// tables: parallel execution must change wall-clock only, never output.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	mk := func(workers int) *Runner {
		opts := QuickOptions()
		opts.Layers = detLayers(t)
		opts.Workers = workers
		return NewRunner(opts)
	}
	serial, parallel := mk(1), mk(8)
	if serial.Workers() != 1 || parallel.Workers() != 8 {
		t.Fatalf("worker counts %d/%d", serial.Workers(), parallel.Workers())
	}
	figs := []struct {
		name string
		run  func(*Runner) (*report.Table, error)
	}{
		{"fig9", (*Runner).Fig9},
		{"fig10", (*Runner).Fig10},
		{"fig11", (*Runner).Fig11},
		{"fig12", (*Runner).Fig12},
	}
	for _, f := range figs {
		ts, err := f.run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", f.name, err)
		}
		tp, err := f.run(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", f.name, err)
		}
		if ts.String() != tp.String() {
			t.Errorf("%s differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				f.name, ts, tp)
		}
	}
}

// TestParallelDeterminismFig13 covers the batch sweep (own runner pair: its
// kernels are batch-renamed, so nothing is shared with the Fig. 9-12 keys).
func TestParallelDeterminismFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	mk := func(workers int) *Runner {
		opts := QuickOptions()
		opts.Layers = detLayers(t)[:1]
		opts.Workers = workers
		return NewRunner(opts)
	}
	ts, err := mk(1).Fig13()
	if err != nil {
		t.Fatal(err)
	}
	tp, err := mk(8).Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if ts.String() != tp.String() {
		t.Errorf("fig13 differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", ts, tp)
	}
}

// TestCachedKeyStableAcrossInvocations: the same Runner must hand back the
// identical sim.Result for a cached key, invocation after invocation.
func TestCachedKeyStableAcrossInvocations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := QuickOptions()
	opts.Layers = detLayers(t)[:1]
	opts.Workers = 4
	r := NewRunner(opts)
	l := opts.Layers[0]
	first, err := r.Baseline(l)
	if err != nil {
		t.Fatal(err)
	}
	firstDup, err := r.Duplo(l, DefaultLHB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := r.Baseline(l)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("invocation %d: cached baseline result changed", i)
		}
		againDup, err := r.Duplo(l, DefaultLHB)
		if err != nil {
			t.Fatal(err)
		}
		if againDup != firstDup {
			t.Fatalf("invocation %d: cached duplo result changed", i)
		}
	}
	if got := r.Execs(); got != 2 {
		t.Fatalf("executed %d simulations, want 2", got)
	}
}

// hammerLayer is a deliberately tiny convolution so the singleflight hammer
// stays fast under -race.
var hammerLayer = conv.Params{N: 1, H: 8, W: 8, C: 16, K: 32, FH: 3, FW: 3, Pad: 1, Stride: 1}

// TestRunCacheSingleflight hammers the run cache from 16 goroutines
// requesting overlapping keys and asserts (a) every goroutine sees the
// same result per key and (b) each unique key simulated exactly once.
func TestRunCacheSingleflight(t *testing.T) {
	opts := QuickOptions()
	opts.MaxCTAs = 4
	opts.SimSMs = 1
	opts.Workers = 8
	r := NewRunner(opts)

	base := opts.config()
	cfgs := []sim.Config{base}
	for _, entries := range []int{256, 1024} {
		c := base
		c.Duplo = true
		c.DetectCfg.LHB = duplo.LHBConfig{Entries: entries, Ways: 1}
		cfgs = append(cfgs, c)
	}
	oracle := base
	oracle.Duplo = true
	oracle.DetectCfg.LHB = duplo.LHBConfig{Oracle: true}
	cfgs = append(cfgs, oracle)

	const goroutines = 16
	const iters = 8
	results := make([][]sim.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Each goroutine walks the key set at its own phase so
				// every key is requested concurrently by many goroutines.
				c := cfgs[(g+i)%len(cfgs)]
				k, err := sim.NewConvKernel("hammer", hammerLayer)
				if err != nil {
					errs[g] = err
					return
				}
				res, err := r.Run(k, c)
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := r.Execs(); got != int64(len(cfgs)) {
		t.Fatalf("executed %d simulations for %d unique keys", got, len(cfgs))
	}
	if got := len(r.cache); got != len(cfgs) {
		t.Fatalf("cache holds %d entries, want %d", got, len(cfgs))
	}
	// Cross-check result stability: every goroutine's view of key j must
	// match goroutine 0's.
	canon := make(map[int]sim.Result)
	for g := range results {
		for i, res := range results[g] {
			j := (g + i) % len(cfgs)
			if prev, ok := canon[j]; !ok {
				canon[j] = res
			} else if res != prev {
				t.Fatalf("goroutine %d saw a different result for key %d", g, j)
			}
		}
	}
}

// TestProgressSink: a nil Progress makes progress a no-op, a set one
// receives every line, and the sink is safe for concurrent workers.
func TestProgressSink(t *testing.T) {
	q := NewRunner(Options{})
	if q.sink != nil {
		t.Fatal("sink must be nil when Progress is unset")
	}
	q.progress("dropped") // must not panic
	// Progress set: every concurrent emission arrives.
	var mu sync.Mutex
	var got []string
	v := NewRunner(Options{Workers: 8,
		Progress: func(s string) { mu.Lock(); got = append(got, s); mu.Unlock() }})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.progress("worker %d", i)
		}(i)
	}
	wg.Wait()
	if len(got) != 32 {
		t.Fatalf("progress delivered %d/32 lines", len(got))
	}
}

// BenchmarkRunnerSerial regenerates Fig. 9 on the three-layer subset at
// quick scale through the Workers=1 serial path.
func BenchmarkRunnerSerial(b *testing.B) { benchmarkRunner(b, 1) }

// BenchmarkRunnerParallel is the same workload on the default-width pool;
// the Serial/Parallel ratio is the engine's speedup on this host (~cores,
// until the memory bus saturates; see EXPERIMENTS.md).
func BenchmarkRunnerParallel(b *testing.B) { benchmarkRunner(b, 0) }

func benchmarkRunner(b *testing.B, workers int) {
	opts := QuickOptions()
	opts.Layers = detLayers(b)
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(opts) // fresh cache: every simulation really runs
		if _, err := r.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}
