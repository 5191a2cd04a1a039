package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"duplo/internal/conv"
	duplo "duplo/internal/core"
	"duplo/internal/lowering"
	"duplo/internal/predictor"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// Runner memoizes simulator runs so experiments sharing configurations
// (Fig. 9 and Fig. 10, for instance) pay for each simulation once, and
// executes independent simulations on a bounded worker pool.
//
// The cache is singleflight: when several goroutines request the same
// (kernel, config) key concurrently, exactly one simulates and the rest
// wait for its result. The pool bound applies to executing simulations
// only — waiters hold no slot — so nested fan-outs (Fig. 14 launching
// per-network sweeps that launch per-GEMM runs) cannot deadlock.
type Runner struct {
	opts    Options
	workers int
	sem     chan struct{}   // bounds concurrently executing simulations
	sink    *report.Sink    // nil unless Options.Progress is set
	ctx     context.Context // cancels in-flight and future simulations

	// shared is the ground truth this runner has in common with every
	// Session made from it (or from its parent): the exact-result memo,
	// the disk tier and the simulate function.
	*shared

	// Calibrated analytical predictor state (predict.go), owned by this
	// runner alone: the installed calibration (nil until first use), a
	// remembered fit failure so a broken calibration degrades to ground
	// truth once instead of re-fitting per cell, the lock serializing
	// first-use fitting, and the singleflight memo of results predicted
	// under this runner's calibration.
	calMu  sync.Mutex
	cal    *predictor.Calibration
	calErr error
	predMu sync.Mutex
	preds  map[runKey]*cacheEntry

	execs     atomic.Int64 // simulations actually executed (all tiers missed)
	memHits   atomic.Int64 // runs served from the in-memory singleflight cache
	storeHits atomic.Int64 // runs served from the disk tier
	predicted atomic.Int64 // runs synthesized by the analytical predictor
}

// shared is the part of a Runner its sessions share (see Session).
type shared struct {
	// simFn executes one simulation (sim.RunContext). It is a seam the
	// robustness tests override to inject deterministic per-cell failures.
	simFn func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error)

	// store is the optional on-disk second cache tier (Options.Store): a
	// memoization miss consults it before simulating, and successful runs
	// are persisted through it. nil = memory-only, the pre-store behavior.
	store *store.Store

	// cache memoizes exact (cycle-sim) results by key; mu guards it.
	mu    sync.Mutex
	cache map[runKey]*cacheEntry
}

// cacheEntry is one singleflight slot: done closes when res/err are final.
type cacheEntry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// result returns the entry's shared result, or nil and the error of a
// failed run. Call it only after done has closed.
func (e *cacheEntry) result() (*sim.Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	return &e.res, nil
}

// join returns key's entry in memo m and true when a request for it is
// already in flight or done; otherwise it installs a fresh entry, which
// the caller must fill and close, and returns false.
func join(mu *sync.Mutex, m map[runKey]*cacheEntry, key runKey) (*cacheEntry, bool) {
	mu.Lock()
	defer mu.Unlock()
	if e, ok := m[key]; ok {
		return e, true
	}
	e := &cacheEntry{done: make(chan struct{})}
	m[key] = e
	return e, false
}

// evict removes a failed entry from memo m before its waiters wake, so a
// later request retries instead of being served a poisoned key. It guards
// on identity: a retry may have installed a fresh entry in the window.
func evict(mu *sync.Mutex, m map[runKey]*cacheEntry, key runKey, e *cacheEntry) {
	mu.Lock()
	if m[key] == e {
		delete(m, key)
	}
	mu.Unlock()
}

// NewRunner builds a runner with opts.Workers pool slots (default
// runtime.GOMAXPROCS(0)).
func NewRunner(opts Options) *Runner {
	sh := &shared{
		simFn: sim.RunContext,
		store: opts.Store,
		cache: make(map[runKey]*cacheEntry),
	}
	if opts.Faults != nil {
		sh.simFn = faultWrap(opts.Faults, sh.simFn)
	}
	return newRunner(opts, sh)
}

// newRunner builds the per-runner half around sh.
func newRunner(opts Options, sh *shared) *Runner {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Runner{
		opts:    opts,
		workers: w,
		sem:     make(chan struct{}, w),
		sink:    report.NewSink(opts.Progress),
		ctx:     ctx,
		shared:  sh,
		preds:   make(map[runKey]*cacheEntry),
	}
}

// Session returns a runner for one request's worth of work — a
// duploserved sweep — on r's ground truth. The session shares r's exact-
// result memo, disk store and simulate function (fault wrapper included),
// so a cell that r, or any other session of it, already resolved is a
// memo hit: no store read, no simulation. It owns everything scoped to
// the request: ctx cancels its simulations, progress (nil = none)
// receives its progress lines, and it has its own Workers pool slots, its
// own counters, and its own predictor state — its calibration is loaded
// or fitted on first use like a fresh runner's, and its predicted cells
// never cross into r or another session.
func (r *Runner) Session(ctx context.Context, progress func(string)) *Runner {
	opts := r.opts
	opts.Context, opts.Progress = ctx, progress
	return newRunner(opts, r.shared)
}

// faultWrap layers a SimFaultInjector over the simulate function: injected
// delays stall before the run (losing to cancellation with the usual typed
// error), injected faults surface as contained sim.PhasePanic errors — the
// exact failure shape a real in-loop panic produces, so the whole typed
// error path (problem documents, failed-run eviction, crash accounting) is
// exercised without ever crashing a server goroutine. Nil Faults never
// reaches here; the production simFn is untouched.
func faultWrap(f SimFaultInjector, next func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error)) func(context.Context, sim.Config, *sim.Kernel) (sim.Result, error) {
	return func(ctx context.Context, cfg sim.Config, k *sim.Kernel) (sim.Result, error) {
		if d := f.SimDelay(k.Name); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				phase := sim.PhaseCancelled
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					phase = sim.PhaseDeadline
				}
				return sim.Result{}, &sim.SimError{Phase: phase, Reason: "cancelled during injected delay", Err: ctx.Err()}
			case <-t.C:
			}
		}
		if ferr := f.SimFault(k.Name); ferr != nil {
			return sim.Result{}, &sim.SimError{
				Phase:  sim.PhasePanic,
				Reason: fmt.Sprintf("injected simulation fault: %v", ferr),
				Err:    ferr,
			}
		}
		return next(ctx, cfg, k)
	}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Execs returns how many simulations actually ran (misses in both cache
// tiers); memory hits, disk-store hits and coalesced concurrent requests
// do not count.
func (r *Runner) Execs() int64 { return r.execs.Load() }

// StoreHits returns how many runs were served from the disk tier instead
// of simulating (0 when no store is configured).
func (r *Runner) StoreHits() int64 { return r.storeHits.Load() }

// Predicted returns how many runs were synthesized by the calibrated
// analytical predictor instead of simulating (0 unless Options.Predictor
// enables it). Memoized re-reads of a predicted cell are not counted.
func (r *Runner) Predicted() int64 { return r.predicted.Load() }

// CacheStats is a point-in-time snapshot of the runner's tiered caching
// activity, surfaced by `duploexp -v` and duploserved's /statsz.
type CacheStats struct {
	Workers   int   `json:"workers"`
	Execs     int64 `json:"execs"`
	MemHits   int64 `json:"mem_hits"`
	StoreHits int64 `json:"store_hits"`
	Predicted int64 `json:"predicted"`
}

// CacheStats snapshots the tier counters. Like store.Counters, the
// snapshot is not atomic across fields but each field is exact.
func (r *Runner) CacheStats() CacheStats {
	return CacheStats{
		Workers:   r.workers,
		Execs:     r.execs.Load(),
		MemHits:   r.memHits.Load(),
		StoreHits: r.storeHits.Load(),
		Predicted: r.predicted.Load(),
	}
}

// Store returns the disk tier, nil when the runner is memory-only.
func (r *Runner) Store() *store.Store { return r.store }

// progress emits one formatted progress line through the concurrency-safe
// sink (no-op unless Options.Progress is set).
func (r *Runner) progress(format string, args ...interface{}) {
	if r.sink != nil {
		r.sink.Println(fmt.Sprintf(format, args...))
	}
}

// runKey identifies one simulation in every cache tier: every exported
// sim.Kernel field (Conv by value) and the config with resultConfig's
// fields cleared. The memos map it directly; the store and the
// calibration artifact key on its encoding. A field added to either type
// is in the key by construction or fails TestRunKeyFields, so a config
// change can never be served a result simulated under another value.
// The name stays in for now: Fig. 13's "@b8" kernels have Fig. 9's
// geometry but memoize apart from it (ROADMAP item 10).
type runKey struct {
	name                string
	m, n, k             int
	mPad, nPad, kPad    int
	elemSize, dElemSize int
	aBase, bBase, dBase uint64
	variant             sim.SharedVariant
	conv                conv.Params // zero when k.Conv is nil
	layout              lowering.Layout
	cfg                 sim.Config
}

// newRunKey builds k's key under cfg.
func newRunKey(k *sim.Kernel, cfg sim.Config) runKey {
	rk := runKey{
		name: k.Name,
		m:    k.M, n: k.N, k: k.K,
		mPad: k.MPad, nPad: k.NPad, kPad: k.KPad,
		elemSize: k.ElemSize, dElemSize: k.DElemSize,
		aBase: k.ABase, bBase: k.BBase, dBase: k.DBase,
		variant: k.Variant,
		layout:  k.Layout,
		cfg:     resultConfig(cfg),
	}
	if k.Conv != nil {
		rk.conv = *k.Conv
	}
	return rk
}

// resultConfig clears the config fields that cannot change a successful
// result: the tracer is observational (TestTracingDoesNotPerturb), and the
// crash-dump directory and watchdog window only shape how a failed run
// fails (TestHardenedRunByteIdentical). MaxCycles, WallTimeout and
// DenseClock stay: a bounded request must not be served an unbounded
// run's result, and a cross-clock comparison must really simulate twice.
func resultConfig(cfg sim.Config) sim.Config {
	cfg.Tracer = nil
	cfg.CrashDumpDir = ""
	cfg.WatchdogWindow = 0
	return cfg
}

// encode renders the key as the store and calibration keys. fmt prints
// unexported fields by value, without calling their String methods, and
// the leading name is the only field that can print a space, so equal
// encodings mean equal keys.
func (rk runKey) encode() string { return fmt.Sprint(rk) }

// Run obtains kernel k's result under cfg, memoized and singleflighted:
// safe for concurrent use, and each unique key simulates at most once per
// attempt wave. Only successful runs stay memoized — a failed run's entry
// is evicted before it is published, so concurrent waiters get the error
// but a later request retries instead of being served a poisoned key for
// the process lifetime.
//
// When Options.Predictor enables the analytical fast path, Run may return
// a predicted (marked, never persisted) result instead of simulating —
// see runTier in predict.go for the exact decision. RunExact always
// simulates.
func (r *Runner) Run(k *sim.Kernel, cfg sim.Config) (sim.Result, error) {
	return r.runTier(r.ctx, k, cfg)
}

// RunCtx is the exact-tier Run with an explicit context governing this
// request's execution: when this request ends up being the one that
// simulates, ctx (not the runner-wide context) cancels it. Coalesced
// waiters share the executing request's fate, with one exception: when
// the executor was cancelled (its error wraps context.Canceled) and the
// waiter's own ctx is still live, the waiter retries — the eviction
// semantics mean it joins a newer flight or simulates itself — so one
// client's cancellation never fails another's request. Deadlines and
// every other error propagate. A nil ctx selects the runner-wide context.
// RunCtx never predicts: single-run requests (POST /v1/runs, duplosim's
// default) are ground-truth API surface. It returns a copy of what
// RunShared returns.
func (r *Runner) RunCtx(ctx context.Context, k *sim.Kernel, cfg sim.Config) (sim.Result, error) {
	res, err := r.RunShared(ctx, k, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return *res, nil
}

// RunShared is RunCtx without the copy: it returns the memo entry's own
// result, which callers must treat as read-only, or nil and the error
// when the run failed. The pointer stays valid for the runner's lifetime
// (successful entries are never evicted, and the entry is written before
// its done channel closes), so duploserved keeps it in every finished
// job instead of a private copy of the Result.
func (r *Runner) RunShared(ctx context.Context, k *sim.Kernel, cfg sim.Config) (*sim.Result, error) {
	if ctx == nil {
		ctx = r.ctx
	}
	key := newRunKey(k, cfg)
	e, inFlight := join(&r.mu, r.cache, key)
	for inFlight {
		r.memHits.Add(1)
		<-e.done
		res, err := e.result()
		if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return res, err
		}
		// The executor's request was cancelled, not this one, so the memo
		// did not serve it after all. The failed entry is already evicted:
		// this joins a newer flight or installs its own.
		r.memHits.Add(-1)
		e, inFlight = join(&r.mu, r.cache, key)
	}

	// Disk tier. Traced runs bypass it in both directions: a collector
	// must observe an actual execution, and its result (byte-identical by
	// the tracing contract) would be a redundant write. The lookup happens
	// before a pool slot is taken — a store hit never occupies simulation
	// capacity.
	persist := r.store != nil && cfg.Tracer == nil
	var storeKey string
	if persist {
		storeKey = key.encode()
		if rec, ok := r.store.Get(storeKey); ok {
			r.storeHits.Add(1)
			e.res = rec.Result(k, cfg)
			close(e.done)
			return &e.res, nil
		}
	}

	r.sem <- struct{}{}
	r.execs.Add(1)
	e.res, e.err = r.simFn(ctx, cfg, k)
	<-r.sem
	if e.err != nil {
		// Evict before closing done: once waiters wake, the failed key
		// must already be gone. Nothing is persisted, so the disk tier
		// inherits the same semantics: a failed run can never be served
		// from the store.
		evict(&r.mu, r.cache, key, e)
	} else if persist {
		// Best-effort: a full disk must not fail the sweep. The error is
		// surfaced on the progress sink and in the store's PutErrors
		// counter (statsz).
		if perr := r.store.Put(storeKey, store.RecordOf(e.res)); perr != nil {
			r.progress("store: persist %s: %v", k.Name, perr)
		}
	}
	close(e.done)
	return e.result()
}

// fanOutAll runs n independent tasks on the worker pool and returns one
// error slot per task. Every task runs — the serial path does not stop at
// the first failure — so a sweep degrades to per-cell errors instead of
// aborting the figure, and the outputs written so far stay valid for a
// partial table. A panicking task is contained into its own error slot;
// the remaining tasks still run. Tasks must write their outputs to
// disjoint, index-addressed slots so assembly order is the caller's loop
// order, not completion order.
func (r *Runner) fanOutAll(n int, f func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	call := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiments: task %d panicked: %v", i, p)
			}
		}()
		return f(i)
	}
	if r.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			errs[i] = call(i)
		}
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = call(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// fanOut is the all-or-nothing form: every task runs (and drains), and the
// lowest-index error is returned — deterministic regardless of completion
// order. Callers that can render partial results use fanOutAll directly.
func (r *Runner) fanOut(n int, f func(i int) error) error {
	for _, err := range r.fanOutAll(n, f) {
		if err != nil {
			return err
		}
	}
	return nil
}

// LayerKernel builds the forward tensor-core GEMM kernel for a layer.
func LayerKernel(l workload.Layer) (*sim.Kernel, error) {
	return sim.NewConvKernel(l.FullName(), l.GemmParams())
}

// Baseline runs the layer without Duplo (predict-aware).
func (r *Runner) Baseline(l workload.Layer) (sim.Result, error) {
	k, err := LayerKernel(l)
	if err != nil {
		return sim.Result{}, err
	}
	return r.runTier(r.ctx, k, r.opts.config())
}

// Duplo runs the layer with the given LHB configuration (predict-aware).
func (r *Runner) Duplo(l workload.Layer, lhb duplo.LHBConfig) (sim.Result, error) {
	k, err := LayerKernel(l)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := r.opts.config()
	cfg.Duplo = true
	cfg.DetectCfg.LHB = lhb
	return r.runTier(r.ctx, k, cfg)
}
