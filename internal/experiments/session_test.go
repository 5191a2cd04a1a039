package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"duplo/internal/predictor"
	"duplo/internal/sim"
	"duplo/internal/store"
)

// TestSessionSharesExactMemo: a session shares its parent's exact memo in
// both directions. A cell the parent resolved is a memo hit in the
// session, with no store read; a cell the session simulates is a memo hit
// for the parent afterwards; and neither side's counters move with the
// other's work.
func TestSessionSharesExactMemo(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Workers = 2
	opts.Store = st
	r := NewRunner(opts)
	stubSim(r)
	l := detLayers(t)[0]
	base := opts.Config()
	withDuplo := opts.Config()
	withDuplo.Duplo = true
	withDuplo.DetectCfg.LHB = DefaultLHB
	// Kernels are rebuilt per request, as duploserved and the sweeps do.
	kernel := func() *sim.Kernel {
		k, err := LayerKernel(l)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	want, err := r.RunExact(kernel(), base)
	if err != nil {
		t.Fatal(err)
	}
	parent := r.CacheStats()
	lookups := st.Counters()

	s := r.Session(context.Background(), nil)
	got, err := s.RunExact(kernel(), base)
	if err != nil || got.Stats != want.Stats {
		t.Fatalf("session run: %+v, %v; want the parent's %+v", got.Stats, err, want.Stats)
	}
	if c := st.Counters(); c.Hits != lookups.Hits || c.Misses != lookups.Misses {
		t.Fatalf("session read the store (hits %d→%d, misses %d→%d), want a memo hit",
			lookups.Hits, c.Hits, lookups.Misses, c.Misses)
	}
	if cs := s.CacheStats(); cs.MemHits != 1 || cs.Execs != 0 || cs.StoreHits != 0 {
		t.Fatalf("session counters %+v, want one memo hit and nothing else", cs)
	}

	// The session simulates a new cell; the parent then finds it in memory.
	if _, err := s.RunExact(kernel(), withDuplo); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Execs != 1 {
		t.Fatalf("session executed %d simulations for a new cell, want 1", cs.Execs)
	}
	if cs := r.CacheStats(); cs != parent {
		t.Fatalf("parent counters moved with the session's work: %+v, want %+v", cs, parent)
	}
	if _, err := r.RunExact(kernel(), withDuplo); err != nil {
		t.Fatal(err)
	}
	if cs := r.CacheStats(); cs.MemHits != parent.MemHits+1 || cs.Execs != parent.Execs {
		t.Fatalf("parent counters %+v after the session's cell, want one more memo hit than %+v", cs, parent)
	}
}

// TestSessionCancelIsolated: a session's context governs that session
// only. A cancelled session fails its own cells, leaves nothing memoized,
// and neither the parent nor a sibling session is cancelled with it.
func TestSessionCancelIsolated(t *testing.T) {
	opts := QuickOptions()
	opts.Workers = 2
	r := NewRunner(opts)
	r.simFn = func(ctx context.Context, cfg sim.Config, k *sim.Kernel, ar *sim.Arena) (sim.Result, error) {
		if err := ctx.Err(); err != nil {
			return sim.Result{}, &sim.SimError{Phase: sim.PhaseCancelled, Reason: "cancelled", Err: err}
		}
		return stubSimFn(ctx, cfg, k, ar)
	}
	l := detLayers(t)[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := r.Session(ctx, nil)
	if _, err := dead.Baseline(l); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled session: got %v, want context.Canceled", err)
	}
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Fatalf("cancelled session left %d memo entries", cached)
	}

	if res, err := r.Baseline(l); err != nil || res.Cycles != 1000 {
		t.Fatalf("parent after a session's cancellation: %+v, %v", res.Stats, err)
	}
	sibling := r.Session(context.Background(), nil)
	if res, err := sibling.Duplo(l, DefaultLHB); err != nil || res.Cycles != 900 {
		t.Fatalf("sibling session after a session's cancellation: %+v, %v", res.Stats, err)
	}
	if cs := dead.CacheStats(); cs.Execs != 1 || cs.MemHits != 0 {
		t.Fatalf("cancelled session counters %+v, want its one failed execution", cs)
	}
}

// TestSessionPredictsFromItsOwnCalibration: predictor state is per
// session. Each session loads the calibration artifact on first use, so
// after the artifact is replaced (what POST /v1/calibrate?force=1 does)
// a new session predicts afresh from it, while an older session keeps
// serving its own predictions from its own memo and the parent predicts
// nothing.
func TestSessionPredictsFromItsOwnCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := tinyOptions()
	opts.Predictor = PredictAll
	opts.CalibrationPath = filepath.Join(t.TempDir(), "calibration.json")
	r := NewRunner(opts)
	calA, err := r.Calibrate(true)
	if err != nil {
		t.Fatal(err)
	}
	l := opts.Layers[0]
	predict := func(s *Runner) sim.Result {
		t.Helper()
		res, err := s.Duplo(l, DefaultLHB)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Predicted {
			t.Fatal("cell was not predicted")
		}
		return res
	}

	a := r.Session(context.Background(), nil)
	resA := predict(a)

	// Replace the artifact with a calibration that predicts twice the
	// counts: same key, different model.
	var calB predictor.Calibration
	b, err := json.Marshal(calA)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &calB); err != nil {
		t.Fatal(err)
	}
	for _, m := range calB.Families {
		for _, w := range m.Weights {
			for i := range w {
				w[i] *= 2
			}
		}
	}
	if err := predictor.Save(opts.CalibrationPath, &calB); err != nil {
		t.Fatal(err)
	}

	bs := r.Session(context.Background(), nil)
	resB := predict(bs)
	if resB.Cycles == resA.Cycles {
		t.Fatalf("session over the new artifact predicted %d cycles, the same as the old one's", resB.Cycles)
	}
	if cs := bs.CacheStats(); cs.Predicted != 1 || cs.MemHits != 0 {
		t.Fatalf("new session counters %+v, want one fresh prediction", cs)
	}
	if again := predict(a); again.Cycles != resA.Cycles {
		t.Fatalf("old session re-served %d cycles, want its own %d", again.Cycles, resA.Cycles)
	}
	if cs := a.CacheStats(); cs.Predicted != 1 || cs.MemHits != 1 {
		t.Fatalf("old session counters %+v, want one prediction and one memo hit", cs)
	}
	if n := r.Predicted(); n != 0 {
		t.Fatalf("parent counted %d predictions made by its sessions", n)
	}
}
