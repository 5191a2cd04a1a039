package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"duplo/internal/fault"
	"duplo/internal/sim"
	"duplo/internal/store"
)

// stubSimFn is a deterministic stand-in for the cycle simulator, so chaos
// tests exercise the caching/fault plumbing without paying for real
// simulations. Fault tests re-wrap it with faultWrap explicitly (setting
// r.simFn directly bypasses the wrap NewRunner installed).
func stubSimFn(_ context.Context, cfg sim.Config, k *sim.Kernel) (sim.Result, error) {
	cycles := int64(1000)
	if cfg.Duplo {
		cycles = 900
	}
	return sim.Result{Stats: sim.Stats{Cycles: cycles, Instructions: int64(len(k.Name))}}, nil
}

func stubSim(r *Runner) { r.simFn = stubSimFn }

// TestRunnerSurvivesStoreOutage: with every store read and write failing,
// runs still succeed (simulate + memo), the memo tier keeps serving
// repeats, and the failure is visible in the counters — the disk tier
// degrades to warmth loss, never to wrong answers or errors.
func TestRunnerSurvivesStoreOutage(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.Parse("store-read:every=1;store-write:every=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaults(in)
	opts := QuickOptions()
	opts.Workers = 2
	opts.Store = st
	r := NewRunner(opts)
	stubSim(r)

	l := detLayers(t)[0]
	k, err := LayerKernel(l)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.Config()
	res, err := r.Run(k, cfg)
	if err != nil {
		t.Fatalf("run failed under store outage: %v", err)
	}
	if res.Stats.Cycles != 1000 {
		t.Fatalf("run returned wrong result under store outage: %+v", res.Stats)
	}
	if _, err := r.Run(k, cfg); err != nil {
		t.Fatalf("memoized re-run failed: %v", err)
	}
	if r.Execs() != 1 {
		t.Errorf("executed %d simulations, want 1 (memo tier must survive the outage)", r.Execs())
	}
	c := st.Counters()
	if c.ReadErrors == 0 || c.PutErrors == 0 {
		t.Errorf("outage left no counter trace: %+v", c)
	}
}

// TestSimFaultSurfacesAsTypedPanic: an injected simulation fault comes
// back as a *sim.SimError with phase "panic" wrapping the injected
// sentinel — the same shape a real contained panic produces — and the
// failed run is never memoized or persisted, so the retry succeeds.
func TestSimFaultSurfacesAsTypedPanic(t *testing.T) {
	in, err := fault.Parse("sim:nth=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Workers = 1
	opts.Store = st
	opts.Faults = in
	r := NewRunner(opts)
	r.simFn = faultWrap(in, stubSimFn)

	k, err := LayerKernel(detLayers(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.Config()
	_, rerr := r.Run(k, cfg)
	var se *sim.SimError
	if !errors.As(rerr, &se) || se.Phase != sim.PhasePanic {
		t.Fatalf("injected sim fault returned %v, want *sim.SimError{Phase: panic}", rerr)
	}
	if !errors.Is(rerr, fault.ErrInjected) {
		t.Errorf("sim fault does not unwrap to ErrInjected: %v", rerr)
	}
	if c := st.Counters(); c.Puts != 0 {
		t.Errorf("failed run was persisted (%d puts)", c.Puts)
	}
	// nth=1 has fired; the retry simulates cleanly (failed-run eviction).
	res, rerr := r.Run(k, cfg)
	if rerr != nil || res.Stats.Cycles == 0 {
		t.Fatalf("retry after injected fault: %v %+v", rerr, res.Stats)
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Errorf("successful retry not persisted (%d puts)", c.Puts)
	}
}

// TestSimDelayLosesToCancellation: an injected sim delay aborts with the
// typed cancellation error when the context dies first — long-job
// modeling must not wedge shutdown.
func TestSimDelayLosesToCancellation(t *testing.T) {
	in, err := fault.Parse("sim-delay:every=1,delay=1h", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Workers = 1
	opts.Faults = in
	r := NewRunner(opts)
	r.simFn = faultWrap(in, stubSimFn)
	k, err := LayerKernel(detLayers(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, rerr := r.RunCtx(ctx, k, opts.Config())
	var se *sim.SimError
	if !errors.As(rerr, &se) || se.Phase != sim.PhaseCancelled {
		t.Fatalf("cancelled delayed run returned %v, want *sim.SimError{Phase: cancelled}", rerr)
	}
	if !errors.Is(rerr, context.Canceled) {
		t.Errorf("cancelled run does not unwrap to context.Canceled: %v", rerr)
	}
}

// TestFaultFreeDifferential is the acceptance gate for the hook
// discipline: with the whole robustness layer armed (injector attached to
// store and runner, resilience enabled) but no fault rules, fig9 and
// fig10 render byte-identical to a build with the machinery absent.
func TestFaultFreeDifferential(t *testing.T) {
	layers := detLayers(t)
	render := func(armed bool) string {
		opts := QuickOptions()
		opts.Layers = layers
		opts.Workers = 4
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = st
		if armed {
			in, err := fault.Parse("", 1) // armed, zero rules
			if err != nil {
				t.Fatal(err)
			}
			st.SetFaults(in)
			st.EnableResilience(store.ResilienceConfig{})
			opts.Faults = in
		}
		r := NewRunner(opts)
		if armed {
			r.simFn = faultWrap(opts.Faults, stubSimFn)
		} else {
			stubSim(r)
		}
		var b strings.Builder
		for _, id := range []string{"fig9", "fig10"} {
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
		return b.String()
	}
	plain, armed := render(false), render(true)
	if plain != armed {
		t.Errorf("fault-free armed run differs from plain run:\n--- plain ---\n%s\n--- armed ---\n%s", plain, armed)
	}
}
