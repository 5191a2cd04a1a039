package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"duplo/internal/sim"
)

// errInjected is the sentinel the robustness tests inject through the
// Runner's simFn seam.
var errInjected = errors.New("injected cell failure")

// TestRunnerEvictsFailedRuns pins the failure side of the singleflight
// cache: a failed run's entry is evicted before waiters wake (they get the
// error, not a hang), a later request retries instead of being served the
// poisoned key, and successful entries still memoize.
func TestRunnerEvictsFailedRuns(t *testing.T) {
	opts := QuickOptions()
	opts.MaxCTAs = 4
	opts.SimSMs = 1
	opts.Workers = 4
	r := NewRunner(opts)
	var calls atomic.Int64
	r.simFn = func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
		if calls.Add(1) == 1 {
			return sim.Result{}, errInjected
		}
		return sim.Result{Stats: sim.Stats{Cycles: 1234}}, nil
	}
	k, err := sim.NewConvKernel("evict-a", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()

	// First attempt fails and must not stay memoized.
	if _, err := r.Run(k, cfg); !errors.Is(err, errInjected) {
		t.Fatalf("first run: got %v, want the injected failure", err)
	}
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Fatalf("failed run stayed cached (%d entries)", cached)
	}

	// The retry re-executes and succeeds; a third request is a cache hit.
	res, err := r.Run(k, cfg)
	if err != nil || res.Cycles != 1234 {
		t.Fatalf("retry: res=%+v err=%v", res.Stats, err)
	}
	again, err := r.Run(k, cfg)
	if err != nil || again != res {
		t.Fatalf("cached request: res changed (%v) or errored (%v)", again != res, err)
	}
	if got := r.Execs(); got != 2 {
		t.Fatalf("executed %d simulations, want 2 (fail + retry, then a hit)", got)
	}

	// Concurrent waiters coalesced onto a failing flight all receive the
	// error. The flight blocks until released, so the waiters are real.
	var failing atomic.Bool
	failing.Store(true)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	r.simFn = func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
		if failing.Load() {
			once.Do(func() { close(started) })
			<-release
			return sim.Result{}, errInjected
		}
		return sim.Result{Stats: sim.Stats{Cycles: 5678}}, nil
	}
	k2, err := sim.NewConvKernel("evict-b", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Run(k2, cfg)
		}(i)
	}
	<-started // the flight is in simFn: its entry is installed and open
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errInjected) {
			t.Errorf("waiter %d: got %v, want the injected failure", i, err)
		}
	}
	r.mu.Lock()
	cached = len(r.cache)
	r.mu.Unlock()
	if cached != 1 { // only the evict-a success remains
		t.Fatalf("cache holds %d entries after the failing flights, want 1", cached)
	}
	failing.Store(false)
	if res, err := r.Run(k2, cfg); err != nil || res.Cycles != 5678 {
		t.Fatalf("post-failure retry: res=%+v err=%v", res.Stats, err)
	}
}

// TestRunnerCancelledFlightRetriesWaiters pins the cancellation side of
// the singleflight cache: when the request executing a cell is cancelled,
// a coalesced waiter whose own context is live retries and gets the
// result instead of the executor's cancellation, while a waiter whose own
// context is cancelled too keeps the error. Deadlines are not retried: a
// flight that ran out of time fails its waiters as before.
func TestRunnerCancelledFlightRetriesWaiters(t *testing.T) {
	opts := QuickOptions()
	opts.MaxCTAs = 4
	opts.SimSMs = 1
	opts.Workers = 4
	r := NewRunner(opts)
	var calls atomic.Int64
	started := make(chan struct{})
	var cause error // the first flight's error cause, set before each flight starts
	r.simFn = func(ctx context.Context, _ sim.Config, _ *sim.Kernel, _ *sim.Arena) (sim.Result, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return sim.Result{}, &sim.SimError{Phase: sim.PhaseCancelled, Reason: "test flight", Err: cause}
		}
		return sim.Result{Stats: sim.Stats{Cycles: 4321}}, nil
	}
	cfg := opts.config()

	// waitJoined blocks until n requests have joined the executing flight.
	waitJoined := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for r.memHits.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d waiters joined the flight", r.memHits.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	type outcome struct {
		res sim.Result
		err error
	}
	run := func(ctx context.Context, k *sim.Kernel) chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := r.RunCtx(ctx, k, cfg)
			ch <- outcome{res, err}
		}()
		return ch
	}

	k, err := sim.NewConvKernel("retry-cancel", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cause = context.Canceled
	execCtx, cancelExec := context.WithCancel(context.Background())
	exec := run(execCtx, k)
	<-started
	deadCtx, cancelDead := context.WithCancel(context.Background())
	live, dead := run(context.Background(), k), run(deadCtx, k)
	waitJoined(2)
	cancelDead()
	cancelExec()
	if o := <-exec; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("cancelled executor: got %v, want context.Canceled", o.err)
	}
	if o := <-dead; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("waiter with a cancelled context: got %v, want context.Canceled", o.err)
	}
	if o := <-live; o.err != nil || o.res.Cycles != 4321 {
		t.Fatalf("live waiter: res=%+v err=%v, want the retried result", o.res.Stats, o.err)
	}
	if got := r.Execs(); got != 2 {
		t.Fatalf("executed %d simulations, want 2 (the cancelled flight and the live waiter's retry)", got)
	}

	// A flight that ran out of time fails its waiters: no retry.
	calls.Store(0)
	r.memHits.Store(0)
	started = make(chan struct{})
	k2, err := sim.NewConvKernel("retry-deadline", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cause = context.DeadlineExceeded
	execCtx, cancelExec = context.WithCancel(context.Background())
	defer cancelExec()
	exec = run(execCtx, k2)
	<-started
	live = run(context.Background(), k2)
	waitJoined(1)
	cancelExec()
	<-exec
	if o := <-live; !errors.Is(o.err, context.DeadlineExceeded) {
		t.Fatalf("waiter on a timed-out flight: got %v, want context.DeadlineExceeded", o.err)
	}
	if got := r.Execs(); got != 3 {
		t.Fatalf("executed %d simulations, want 3 (no retry after a deadline)", got)
	}
}

// TestFanOutDrainAndFirstError pins the degradation contract of the
// fan-out primitives at both pool widths: every task runs even when some
// fail or panic (no early exit leaving outputs half-written), errors land
// in their own index slots, and fanOut reports the lowest-index error
// regardless of completion order.
func TestFanOutDrainAndFirstError(t *testing.T) {
	const n = 23
	task := func(ran *atomic.Int64) func(int) error {
		return func(i int) error {
			ran.Add(1)
			if i == 7 {
				panic("task 7 exploded")
			}
			if i%5 == 0 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		}
	}
	for _, workers := range []int{1, 8} {
		r := NewRunner(Options{Workers: workers})
		var ran atomic.Int64
		errs := r.fanOutAll(n, task(&ran))
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: drained %d/%d tasks", workers, got, n)
		}
		for i, err := range errs {
			switch {
			case i == 7:
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Errorf("workers=%d task %d: panic not contained: %v", workers, i, err)
				}
			case i%5 == 0:
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("task %d failed", i)) {
					t.Errorf("workers=%d task %d: got %v", workers, i, err)
				}
			default:
				if err != nil {
					t.Errorf("workers=%d task %d: unexpected error %v", workers, i, err)
				}
			}
		}
		ran.Store(0)
		err := r.fanOut(n, task(&ran))
		if err == nil || !strings.Contains(err.Error(), "task 0 failed") {
			t.Errorf("workers=%d: fanOut returned %v, want the lowest-index error", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: fanOut drained %d/%d tasks", workers, got, n)
		}
	}
}

// TestPartialTableDeterministic injects one deterministic cell failure
// into a Fig. 9 sweep (through the simFn seam — no real simulations run)
// and requires the degraded output to be byte-identical between Workers=1
// and Workers=8: the same ERR cell, the same poisoned Gmean footer, and
// the same *SweepError. Failure identity is per task, not per schedule.
func TestPartialTableDeterministic(t *testing.T) {
	layers := detLayers(t)
	failLayer := layers[1].FullName()
	failLHB := LHBPoints[1].Cfg
	mk := func(workers int) *Runner {
		opts := QuickOptions()
		opts.Layers = layers
		opts.Workers = workers
		r := NewRunner(opts)
		r.simFn = func(_ context.Context, cfg sim.Config, k *sim.Kernel, _ *sim.Arena) (sim.Result, error) {
			if cfg.Duplo && cfg.DetectCfg.LHB == failLHB && k.Name == failLayer {
				return sim.Result{}, errInjected
			}
			cycles := int64(1000)
			if cfg.Duplo {
				cycles = 900
			}
			return sim.Result{Stats: sim.Stats{Cycles: cycles}}, nil
		}
		return r
	}
	type out struct {
		table string
		err   error
	}
	run := func(workers int) out {
		tbl, err := mk(workers).Fig9()
		if tbl == nil {
			t.Fatalf("workers=%d: degraded sweep must still render a table", workers)
		}
		return out{tbl.String(), err}
	}
	serial, parallel := run(1), run(8)
	if serial.table != parallel.table {
		t.Errorf("degraded fig9 differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.table, parallel.table)
	}
	if n := strings.Count(serial.table, errCell); n != 2 { // the cell and its poisoned Gmean
		t.Errorf("degraded table holds %d %q cells, want 2:\n%s", n, errCell, serial.table)
	}
	for _, o := range []out{serial, parallel} {
		var sw *SweepError
		if !errors.As(o.err, &sw) {
			t.Fatalf("got %T (%v), want *SweepError", o.err, o.err)
		}
		if !errors.Is(o.err, errInjected) {
			t.Errorf("SweepError does not unwrap to the injected failure: %v", o.err)
		}
		if !strings.Contains(o.err.Error(), failLayer+"/"+LHBPoints[1].Name) {
			t.Errorf("SweepError does not name the failed cell: %v", o.err)
		}
	}
	if serial.err.Error() != parallel.err.Error() {
		t.Errorf("SweepError differs between worker counts:\nserial:   %v\nparallel: %v",
			serial.err, parallel.err)
	}
}

// TestSigintCancelsSweep wires a Runner to a signal.NotifyContext (the CLI
// wiring), delivers a real SIGINT to the test process, and requires the
// sweep to degrade: a partial all-ERR table plus a *SweepError that
// unwraps to context.Canceled — the duploexp exit path.
func TestSigintCancelsSweep(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := QuickOptions()
	opts.Layers = detLayers(t)[:1]
	opts.Workers = 4
	opts.Context = ctx
	r := NewRunner(opts)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	tbl, err := r.Fig9()
	if tbl == nil {
		t.Fatal("cancelled sweep must still render a partial table")
	}
	if !strings.Contains(tbl.String(), errCell) {
		t.Errorf("cancelled sweep rendered no %q cells:\n%s", errCell, tbl)
	}
	var sw *SweepError
	if !errors.As(err, &sw) {
		t.Fatalf("got %T (%v), want *SweepError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("SweepError does not unwrap to context.Canceled: %v", err)
	}
	// Every attempt fail-fasted: nothing may be left memoized for a retry
	// after the signal (Execs itself is schedule-dependent here — failed
	// entries evict, so coalescing varies).
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Errorf("cancelled sweep left %d cache entries", cached)
	}
}
