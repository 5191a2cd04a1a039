// Package server implements duploserved, the simulation-as-a-service
// daemon: N clients, one warm result store, zero redundant simulation.
//
// The HTTP surface (all JSON; errors are typed problem documents):
//
//	POST   /v1/runs          submit one (layer, config) simulation job
//	GET    /v1/runs/{id}     job status; result or structured error when done
//	DELETE /v1/runs/{id}     cancel an in-flight job
//	GET    /v1/sweeps/{id}   run a whole figure/ablation, streaming NDJSON
//	GET    /healthz          liveness
//	GET    /statsz           cache/store/job counters
//
// All jobs share one experiments.Runner, so concurrent clients requesting
// the same cell coalesce onto a single simulation (the PR 1 singleflight
// machinery), and every successful run lands in the content-addressed
// disk store (internal/store) where it outlives the process. Per-job
// MaxCycles/WallTimeout budgets and cancellation ride on the PR 5
// RunContext/SimError plumbing; a failed or cancelled job reports the
// SimError's phase/cycle/dump as JSON instead of a stack trace.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Options is the base experiment scale every job and sweep runs at
	// (CTA cap, simulated SMs, worker pool, default budgets). Its Context
	// is the daemon lifetime: cancelling it aborts every in-flight job
	// and sweep. Its Store field is overridden by Config.Store.
	Options experiments.Options
	// Store is the shared on-disk result tier (nil = memory-only: results
	// then live exactly as long as the process).
	Store *store.Store

	// MaxInflight bounds concurrently executing jobs; further submissions
	// wait in the pending queue. 0 = unbounded (every job starts at once;
	// the runner's worker pool is then the only brake).
	MaxInflight int
	// QueueCap bounds pending (accepted, not yet executing) jobs when
	// MaxInflight is set; beyond it submissions are shed with a
	// deterministic 429 + Retry-After. 0 = no pending queue: when every
	// slot is busy, submissions shed immediately.
	QueueCap int
	// MaxSweeps bounds concurrently streaming sweeps; beyond it
	// GET /v1/sweeps/{id} sheds with 503 + Retry-After. 0 = unbounded.
	MaxSweeps int
	// MaxBodyBytes bounds POST bodies (http.MaxBytesReader; oversized
	// requests get a typed 413). 0 = unbounded.
	MaxBodyBytes int64
	// JobTTL evicts completed/failed jobs from the id map this long after
	// they finish; GETs of evicted ids return a typed 410 "gone" problem.
	// 0 = keep forever (the pre-PR-10 behavior; fine for tests, unbounded
	// memory for a long-lived daemon).
	JobTTL time.Duration
	// Journal, when non-nil, records job starts/ends for crash recovery:
	// jobs in flight when the process died are reported as typed
	// "interrupted" problems after restart, and job numbering resumes
	// past every id the journal has seen.
	Journal *Journal
	// Now is the clock used for TTL eviction (nil = time.Now; a seam for
	// deterministic tests).
	Now func() time.Time
}

// Server is the duploserved HTTP handler state.
type Server struct {
	opts   experiments.Options
	store  *store.Store
	runner *experiments.Runner // shared by all /v1/runs jobs
	ctx    context.Context     // daemon lifetime

	mu   sync.Mutex
	jobs map[int64]*job // by sequence number
	// finished holds finished jobs in finish order (only with a JobTTL):
	// the eviction queue, whose expired entries form a prefix.
	finished    []finishedJob
	seq         int64
	interrupted map[string]RunRequest // journal-recovered ids from before a crash
	// healthz degraded-delta watermarks: last-reported store failure
	// counters, so /healthz flags *new* put-errors/corruptions and
	// recovers to ok once they stop (also under mu).
	seenPutErrors int64
	seenCorrupt   int64

	// Admission control (nil/0 = unbounded, the test default).
	inflight chan struct{} // MaxInflight semaphore
	sweepSem chan struct{} // MaxSweeps semaphore
	queued   atomic.Int64  // pending jobs (accepted, waiting for a slot)
	queueCap int64
	maxBody  int64
	jobTTL   time.Duration
	journal  *Journal
	now      func() time.Time
	epoch    time.Time // now() at New; eviction-queue times count from it

	jobsShed   atomic.Int64 // submissions rejected 429 (queue full)
	sweepsShed atomic.Int64 // sweeps rejected 503
	evicted    atomic.Int64 // jobs TTL-evicted from the id map

	sweepsActive   atomic.Int64
	sweepExecs     atomic.Int64 // cumulative simulations executed by finished sweeps
	sweepPredicted atomic.Int64 // cumulative predictor-synthesized cells across finished sweeps
}

// New builds a Server. The shared job runner is created here; sweeps get
// per-request runners (their progress streams belong to one response) that
// share the same disk store.
func New(cfg Config) *Server {
	opts := cfg.Options
	opts.Store = cfg.Store
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Server{
		opts:        opts,
		store:       cfg.Store,
		runner:      experiments.NewRunner(opts),
		ctx:         ctx,
		jobs:        make(map[int64]*job),
		interrupted: make(map[string]RunRequest),
		queueCap:    int64(cfg.QueueCap),
		maxBody:     cfg.MaxBodyBytes,
		jobTTL:      cfg.JobTTL,
		journal:     cfg.Journal,
		now:         cfg.Now,
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.epoch = s.now()
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.MaxSweeps > 0 {
		s.sweepSem = make(chan struct{}, cfg.MaxSweeps)
	}
	if s.journal != nil {
		s.interrupted = s.journal.Interrupted()
		if ms := s.journal.MaxSeq(); ms > s.seq {
			s.seq = ms
		}
	}
	return s
}

// finishedJob is one eviction-queue entry: a finished job and its finish
// time as an offset from Server.epoch (8 bytes instead of a time.Time's
// 24, pointer-free, and still on the monotonic clock).
type finishedJob struct {
	seq int64
	at  time.Duration
}

// evictExpired drops completed/failed jobs whose TTL has lapsed. Called
// lazily from the handlers that touch the job map — no background
// goroutine to manage, and with the Now seam eviction is deterministic
// under test. Only finished jobs are queued, in finish order, so the
// expired ones are a prefix of the queue and a call costs O(jobs
// evicted), not O(jobs retained); running jobs are never evicted
// regardless of age.
func (s *Server) evictExpired() {
	if s.jobTTL <= 0 {
		return
	}
	cutoff := s.now().Sub(s.epoch) - s.jobTTL
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for n < len(s.finished) && s.finished[n].at < cutoff {
		delete(s.jobs, s.finished[n].seq)
		n++
	}
	// Reslicing drops the evicted prefix; append reallocates when it
	// reaches the end of the backing array and copies only the live
	// entries, so the prefix's memory is reclaimed in amortized O(1) per
	// job.
	s.finished = s.finished[n:]
	s.evicted.Add(int64(n))
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("POST /v1/calibrate", s.handleCalibrate)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	return mux
}

// HealthZ is the /healthz body. Status is "ok" or "degraded"; degraded
// means the daemon still serves (jobs succeed off the memo tier and
// re-simulation) but the disk tier is unhealthy: the circuit breaker is
// not closed, or new put-errors/corruptions appeared since the last
// health check. Plain GETs stay 200 either way — liveness probes must
// not kill a pod for a sick disk — while ?strict=1 returns 503 when
// degraded, for load balancers that should drain a degraded instance.
type HealthZ struct {
	Status  string   `json:"status"` // ok | degraded
	Reasons []string `json:"reasons,omitempty"`
	// Breaker is the store circuit breaker's snapshot (absent when the
	// daemon runs without resilience or without a store).
	Breaker *store.BreakerSnapshot `json:"breaker,omitempty"`
	// InterruptedJobs counts journal-recovered jobs from before a crash.
	InterruptedJobs int `json:"interrupted_jobs,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthZ{Status: "ok"}
	if s.store != nil {
		c := s.store.Counters()
		s.mu.Lock()
		h.InterruptedJobs = len(s.interrupted)
		if d := c.PutErrors - s.seenPutErrors; d > 0 {
			h.Reasons = append(h.Reasons, fmt.Sprintf("%d new store put error(s)", d))
		}
		if d := c.Corruptions - s.seenCorrupt; d > 0 {
			h.Reasons = append(h.Reasons, fmt.Sprintf("%d new corrupt store record(s)", d))
		}
		s.seenPutErrors, s.seenCorrupt = c.PutErrors, c.Corruptions
		s.mu.Unlock()
		if b := s.store.Breaker(); b != nil {
			h.Breaker = b
			if b.State != store.BreakerClosed {
				h.Reasons = append(h.Reasons, "store circuit breaker "+b.State)
			}
		}
	} else {
		s.mu.Lock()
		h.InterruptedJobs = len(s.interrupted)
		s.mu.Unlock()
	}
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
	}
	status := http.StatusOK
	if h.Status == "degraded" && r.URL.Query().Get("strict") == "1" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// StatsZ is the /statsz body: one snapshot of every counter a capacity
// dashboard needs — cache tiers, job states, sweep activity.
type StatsZ struct {
	// Workers is the shared job runner's pool width.
	Workers int `json:"workers"`
	// Execs counts simulations the shared job runner actually executed
	// (both cache tiers missed). Sweeps run on per-request runners; their
	// executed simulations accumulate in SweepExecs as each sweep ends.
	Execs      int64 `json:"execs"`
	StoreHits  int64 `json:"store_hits"`
	SweepExecs int64 `json:"sweep_execs"`
	// SweepPredicted accumulates predictor-synthesized cells across
	// finished sweeps (jobs never predict: POST /v1/runs is ground truth).
	SweepPredicted int64 `json:"sweep_predicted"`

	JobsTotal   int   `json:"jobs_total"`
	JobsQueued  int   `json:"jobs_queued"`
	JobsRunning int   `json:"jobs_running"`
	JobsDone    int   `json:"jobs_done"`
	JobsFailed  int   `json:"jobs_failed"`
	SweepsOpen  int64 `json:"sweeps_open"`

	// Admission-control and lifecycle accounting (DESIGN.md §12):
	// submissions shed 429, sweeps shed 503, completed jobs TTL-evicted
	// from the id map, and journal-recovered interrupted jobs.
	JobsShed        int64 `json:"jobs_shed"`
	SweepsShed      int64 `json:"sweeps_shed"`
	JobsEvicted     int64 `json:"jobs_evicted"`
	JobsInterrupted int   `json:"jobs_interrupted"`

	// Store holds the disk tier's counters; absent when the daemon runs
	// memory-only.
	Store *store.Counters `json:"store,omitempty"`
	// Breaker is the store circuit breaker's state (absent unless the
	// daemon enabled store resilience).
	Breaker *store.BreakerSnapshot `json:"breaker,omitempty"`
	// Predictor reports the analytical fast path's mode and the installed
	// calibration's per-family fit quality (DESIGN.md §9).
	Predictor *PredictorStatsZ `json:"predictor"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.evictExpired()
	st := StatsZ{
		Workers:        s.runner.Workers(),
		Execs:          s.runner.Execs(),
		StoreHits:      s.runner.StoreHits(),
		SweepExecs:     s.sweepExecs.Load(),
		SweepPredicted: s.sweepPredicted.Load(),
		SweepsOpen:     s.sweepsActive.Load(),
		JobsShed:       s.jobsShed.Load(),
		SweepsShed:     s.sweepsShed.Load(),
		JobsEvicted:    s.evicted.Load(),
		Predictor:      s.predictorStatsZ(),
	}
	s.mu.Lock()
	st.JobsTotal = len(s.jobs)
	st.JobsInterrupted = len(s.interrupted)
	for _, j := range s.jobs {
		switch j.state() {
		case jobQueued:
			st.JobsQueued++
		case jobRunning:
			st.JobsRunning++
		case jobDone:
			st.JobsDone++
		case jobFailed:
			st.JobsFailed++
		}
	}
	s.mu.Unlock()
	if s.store != nil {
		c := s.store.Counters()
		st.Store = &c
		st.Breaker = s.store.Breaker()
	}
	writeJSON(w, http.StatusOK, st)
}

// writeJSON writes one JSON document with the right header. Encoding
// errors past the header write are unrecoverable mid-body; they surface
// as a truncated response the client's decoder rejects.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // header already written
}
