package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/trace"
)

// TestStoreWarmStartDeterminism is the acceptance gate for the disk tier:
// the same sweep run twice against one store directory (two Store
// instances — two processes, as `duploexp -store DIR` twice) produces
// byte-identical tables, and the second run executes zero cycle
// simulations — every cell is a store hit.
func TestStoreWarmStartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	layers := detLayers(t)[:2]

	render := func() (string, *Runner) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := QuickOptions()
		opts.Layers = layers
		opts.Workers = 4
		opts.Store = st
		r := NewRunner(opts)
		var b strings.Builder
		for _, id := range []string{"fig9", "fig11"} {
			sw, ok := r.Sweep(id)
			if !ok {
				t.Fatalf("no sweep %q", id)
			}
			tbl, err := sw.Run()
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			tbl.Render(&b)
		}
		return b.String(), r
	}

	cold, coldRunner := render()
	if coldRunner.Execs() == 0 {
		t.Fatal("cold run executed nothing")
	}
	coldStore := coldRunner.Store().Counters()
	if coldStore.Puts != coldRunner.Execs() {
		t.Fatalf("cold run persisted %d of %d executions", coldStore.Puts, coldRunner.Execs())
	}

	warm, warmRunner := render()
	if warm != cold {
		t.Errorf("warm tables differ from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if n := warmRunner.Execs(); n != 0 {
		t.Errorf("warm run executed %d simulations, want 0", n)
	}
	warmStore := warmRunner.Store().Counters()
	if warmStore.Hits != warmRunner.StoreHits() || warmStore.Misses != 0 {
		t.Errorf("warm store counters %+v (runner store hits %d), want all hits",
			warmStore, warmRunner.StoreHits())
	}
	// 100%% store hits: every unique cell of the cold run was served warm.
	if warmRunner.StoreHits() != coldRunner.Execs() {
		t.Errorf("warm store hits %d != cold executions %d",
			warmRunner.StoreHits(), coldRunner.Execs())
	}
}

// TestStoreTierSkipsFailedRuns pins the eviction contract on the disk
// tier: a failed simulation is never persisted, and the retry that
// succeeds is.
func TestStoreTierSkipsFailedRuns(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Store = st
	r := NewRunner(opts)
	calls := 0
	r.simFn = func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error) {
		calls++
		if calls == 1 {
			return sim.Result{}, errors.New("injected failure")
		}
		return sim.Result{Stats: sim.Stats{Cycles: 77}}, nil
	}
	k, err := sim.NewConvKernel("store-evict", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()

	if _, err := r.Run(k, cfg); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if c := st.Counters(); c.Puts != 0 {
		t.Fatalf("failed run was persisted: %+v", c)
	}
	res, err := r.Run(k, cfg)
	if err != nil || res.Cycles != 77 {
		t.Fatalf("retry: res=%d err=%v", res.Cycles, err)
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("successful retry not persisted: %+v", c)
	}

	// A fresh runner over the same store serves the retried result warm.
	r2 := NewRunner(opts)
	r2.simFn = func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error) {
		t.Error("warm hit still simulated")
		return sim.Result{}, nil
	}
	res, err = r2.Run(k, cfg)
	if err != nil || res.Cycles != 77 {
		t.Fatalf("warm run: res=%d err=%v", res.Cycles, err)
	}
}

// TestStoreTierBypassedWhenTracing pins the tracing contract against the
// disk tier: a run with a collector attached neither reads nor writes the
// store — the collector must observe an actual execution.
func TestStoreTierBypassedWhenTracing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Store = st
	r := NewRunner(opts)
	r.simFn = func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error) {
		return sim.Result{Stats: sim.Stats{Cycles: 11}}, nil
	}
	k, err := sim.NewConvKernel("store-traced", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()
	cfg.Tracer = trace.NewCollector(cfg.TraceMeta(0))

	if _, err := r.Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Puts != 0 || c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("traced run touched the store: %+v", c)
	}
}

// TestTracedRunExecutes: a traced request for a cell the memo already
// holds still simulates, so its collector records the run it is handed.
func TestTracedRunExecutes(t *testing.T) {
	opts := QuickOptions()
	r := NewRunner(opts)
	k, err := sim.NewConvKernel("traced", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()
	if _, err := r.Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector(cfg.TraceMeta(0))
	cfg.Tracer = col
	res, err := r.Run(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Totals().Instructions; got != res.Instructions || got == 0 {
		t.Errorf("collector recorded %d instructions, the result has %d", got, res.Instructions)
	}
	if got := r.Execs(); got != 2 {
		t.Errorf("executed %d simulations, want 2 (the traced one too)", got)
	}
}

// TestRunSharedReturnsMemoEntry pins RunShared's contract: every call for
// a memoized key returns the same *sim.Result, whether the entry was
// simulated or read from the store; a failed run returns nil and the
// error; and RunCtx returns a copy equal to the shared result.
func TestRunSharedReturnsMemoEntry(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Store = st
	r := NewRunner(opts)
	calls := 0
	r.simFn = func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error) {
		calls++
		if calls == 1 {
			return sim.Result{}, errors.New("injected failure")
		}
		return sim.Result{Stats: sim.Stats{Cycles: 77}, SimulatedCTAs: 3}, nil
	}
	k, err := sim.NewConvKernel("run-shared", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()
	ctx := context.Background()

	if res, err := r.RunShared(ctx, k, cfg); res != nil || err == nil {
		t.Fatalf("failed run: res=%v err=%v, want nil and the error", res, err)
	}

	// Simulated, then a memo hit.
	first, err := r.RunShared(ctx, k, cfg)
	if err != nil || first.Cycles != 77 {
		t.Fatalf("retry: res=%+v err=%v", first, err)
	}
	if again, err := r.RunShared(ctx, k, cfg); err != nil || again != first {
		t.Errorf("memo hit returned %p (err %v), want the entry's %p", again, err, first)
	}
	if res, err := r.RunCtx(ctx, k, cfg); err != nil || !reflect.DeepEqual(res, *first) {
		t.Errorf("RunCtx = %+v (err %v), want a copy of %+v", res, err, *first)
	}

	// A fresh runner over the same store: a store hit, then a memo hit.
	r2 := NewRunner(opts)
	r2.simFn = func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error) {
		t.Error("warm hit still simulated")
		return sim.Result{}, nil
	}
	warm, err := r2.RunShared(ctx, k, cfg)
	if err != nil || warm.Cycles != 77 || r2.StoreHits() != 1 {
		t.Fatalf("store hit: res=%+v err=%v store hits %d", warm, err, r2.StoreHits())
	}
	if again, err := r2.RunShared(ctx, k, cfg); err != nil || again != warm {
		t.Errorf("memo hit after a store hit returned %p (err %v), want the entry's %p", again, err, warm)
	}
	if res, err := r2.RunCtx(ctx, k, cfg); err != nil || !reflect.DeepEqual(res, *warm) {
		t.Errorf("RunCtx = %+v (err %v), want a copy of %+v", res, err, *warm)
	}
}
