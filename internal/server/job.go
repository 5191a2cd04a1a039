package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	duplo "duplo/internal/core"
	"duplo/internal/experiments"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// RunRequest is the POST /v1/runs body: one cell of the evaluation —
// a Table I layer under the daemon's base scale, baseline or Duplo, with
// optional per-job budget overrides.
type RunRequest struct {
	Network string `json:"network"`
	Layer   string `json:"layer"`
	// Batch overrides the layer's Table I batch size (0 = keep it).
	Batch int `json:"batch,omitempty"`

	// Duplo enables the detection unit; the LHB fields refine it
	// (defaults: the paper's 1024-entry direct-mapped design point).
	Duplo      bool `json:"duplo"`
	LHBEntries int  `json:"lhb_entries,omitempty"`
	LHBWays    int  `json:"lhb_ways,omitempty"`
	LHBOracle  bool `json:"lhb_oracle,omitempty"`

	// Per-job budgets (0 = the daemon's defaults): the simulated-cycle
	// bound and the wall-clock bound, both surfaced as typed problem
	// errors when exceeded (sim.SimError phases cycle-limit/deadline).
	MaxCycles     int64 `json:"max_cycles,omitempty"`
	WallTimeoutMS int64 `json:"wall_timeout_ms,omitempty"`
}

// build resolves the request against the daemon's base options into the
// kernel and config to simulate — the same construction duplosim and the
// figure sweeps use, so a job's result is identical to the CLI's.
func (rq RunRequest) build(opts experiments.Options) (*sim.Kernel, sim.Config, error) {
	if rq.Batch < 0 {
		return nil, sim.Config{}, fmt.Errorf("batch %d must be >= 0", rq.Batch)
	}
	if rq.MaxCycles < 0 || rq.WallTimeoutMS < 0 {
		return nil, sim.Config{}, errors.New("budgets must be >= 0")
	}
	l, err := workload.Find(rq.Network, rq.Layer)
	if err != nil {
		return nil, sim.Config{}, err
	}
	if rq.Batch > 0 {
		l.Params = l.Params.WithBatch(rq.Batch)
	}
	k, err := experiments.LayerKernel(l)
	if err != nil {
		return nil, sim.Config{}, err
	}
	if rq.Batch > 0 {
		// Batch-overridden kernels get a distinct name, like Fig. 13's
		// sweep, so they occupy their own cache/store slots.
		k.Name = fmt.Sprintf("%s@b%d", l.FullName(), rq.Batch)
	}
	cfg := opts.Config()
	if rq.Duplo {
		cfg.Duplo = true
		lhb := experiments.DefaultLHB
		if rq.LHBEntries > 0 {
			lhb.Entries = rq.LHBEntries
		}
		if rq.LHBWays > 0 {
			lhb.Ways = rq.LHBWays
		}
		if rq.LHBOracle {
			lhb = duplo.LHBConfig{Oracle: true}
		}
		cfg.DetectCfg.LHB = lhb
	}
	if rq.MaxCycles > 0 {
		cfg.MaxCycles = rq.MaxCycles
	}
	if rq.WallTimeoutMS > 0 {
		cfg.WallTimeout = time.Duration(rq.WallTimeoutMS) * time.Millisecond
	}
	return k, cfg, nil
}

// Job states.
const (
	jobQueued      = "queued"
	jobRunning     = "running"
	jobDone        = "done"
	jobFailed      = "failed"
	jobInterrupted = "interrupted"
)

// job is one submitted run. The daemon retains every finished job for
// -job-ttl, so the record is kept small (~0.2 KB with its table slot and
// eviction-queue entry): the id is formatted from seq on demand, cancel
// is dropped at finish, and a done job shares the runner's memoized
// result.
type job struct {
	seq int64 // the id is jobID(seq)
	req RunRequest

	mu     sync.Mutex
	status string             // jobQueued → jobRunning → jobDone | jobFailed
	cancel context.CancelFunc // nil once finished
	res    *sim.Result        // done: the runner's shared, read-only result
	err    error              // failed
}

// id is the job's external id.
func (j *job) id() string { return jobID(j.seq) }

// start marks a queued job running once it wins an execution slot.
func (j *job) start() {
	j.mu.Lock()
	j.status = jobRunning
	j.mu.Unlock()
}

// state returns the job's current status.
func (j *job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// stop cancels the job if it has not finished.
func (j *job) stop() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// snapshot renders the job's externally visible state.
func (j *job) snapshot() JobStatus {
	js := JobStatus{ID: j.id(), Request: j.req}
	j.mu.Lock()
	defer j.mu.Unlock()
	js.Status = j.status
	switch j.status {
	case jobFailed:
		js.Error = simProblem(j.err)
	case jobDone:
		js.Result = &RunResult{
			Stats:         j.res.Stats,
			SimulatedCTAs: j.res.SimulatedCTAs,
			TotalCTAs:     j.res.TotalCTAs,
		}
	}
	return js
}

// JobStatus is the GET /v1/runs/{id} body.
type JobStatus struct {
	ID      string     `json:"id"`
	Status  string     `json:"status"` // queued | running | done | failed | interrupted
	Request RunRequest `json:"request"`
	Result  *RunResult `json:"result,omitempty"`
	Error   *Problem   `json:"error,omitempty"`
}

// RunResult is the persisted-shape result: the full Stats block plus CTA
// accounting (the same subset internal/store writes to disk).
type RunResult struct {
	Stats         sim.Stats `json:"stats"`
	SimulatedCTAs int       `json:"simulated_ctas"`
	TotalCTAs     int       `json:"total_ctas"`
}

// handleSubmit accepts a RunRequest, starts the job on the shared runner,
// and returns 202 with the job id. Identical concurrent submissions
// coalesce inside the runner onto one simulation.
//
// Admission control (Config.MaxInflight/QueueCap): the execution slot is
// claimed synchronously here when one is free; otherwise the job joins
// the bounded pending queue, and when that too is full the submission is
// shed with a deterministic 429 + Retry-After — the decision depends only
// on the daemon's current load, never on goroutine scheduling.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.evictExpired()
	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var rq RunRequest
	if err := dec.Decode(&rq); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeProblem(w, http.StatusRequestEntityTooLarge, "request body too large",
				fmt.Sprintf("body exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		writeProblem(w, http.StatusBadRequest, "malformed run request", err.Error())
		return
	}
	k, cfg, err := rq.build(s.opts)
	if err != nil {
		writeProblem(w, http.StatusBadRequest, "invalid run request", err.Error())
		return
	}

	// Claim a slot (or a queue seat) before the job exists, so a shed
	// submission leaves no trace.
	queued := false
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}: // the job starts running at once
		default:
			for {
				q := s.queued.Load()
				if q >= s.queueCap {
					s.jobsShed.Add(1)
					w.Header().Set("Retry-After", "1")
					writeProblem(w, http.StatusTooManyRequests, "server at capacity",
						fmt.Sprintf("all %d execution slots busy and %d submissions already pending; retry later", cap(s.inflight), q))
					return
				}
				if s.queued.CompareAndSwap(q, q+1) {
					queued = true
					break
				}
			}
		}
	}

	jctx, cancel := context.WithCancel(s.ctx)
	j := &job{req: rq, cancel: cancel, status: jobRunning}
	if queued {
		j.status = jobQueued
	}
	s.mu.Lock()
	s.seq++
	j.seq = s.seq
	s.jobs[j.seq] = j
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.Start(j.id(), rq)
	}

	go func() {
		defer cancel()
		if queued {
			select {
			case s.inflight <- struct{}{}:
				s.queued.Add(-1)
				j.start()
			case <-jctx.Done():
				// Cancelled (or daemon shutdown) while still queued: finish
				// with the typed cancellation error without ever running.
				s.queued.Add(-1)
				s.finishJob(j, nil, &sim.SimError{
					Phase: sim.PhaseCancelled, Reason: "cancelled while queued", Err: jctx.Err(),
				})
				return
			}
		}
		if s.inflight != nil {
			defer func() { <-s.inflight }()
		}
		res, err := s.runner.RunShared(jctx, k, cfg)
		s.finishJob(j, res, err)
	}()

	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// finishJob records a job's terminal state, queues it for TTL eviction,
// and journals it.
func (s *Server) finishJob(j *job, res *sim.Result, err error) {
	status := jobDone
	if err != nil {
		status = jobFailed
	}
	j.mu.Lock()
	j.status, j.res, j.err = status, res, err
	j.cancel = nil
	j.mu.Unlock()
	if s.jobTTL > 0 {
		// Stamped under s.mu, so the queue is in finish order.
		s.mu.Lock()
		s.finished = append(s.finished, finishedJob{seq: j.seq, at: s.now().Sub(s.epoch)})
		s.mu.Unlock()
	}
	if s.journal != nil {
		s.journal.End(j.id(), status)
	}
}

// lookupJob resolves {id} to a live job, or writes the appropriate
// problem: a journal-recovered id gets the typed "interrupted" status, an
// id the daemon issued but has since TTL-evicted gets 410 gone, anything
// else 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.evictExpired()
	id := r.PathValue("id")
	seq, canonical := jobSeq(id)
	s.mu.Lock()
	if j := s.jobs[seq]; canonical && j != nil {
		s.mu.Unlock()
		return j
	}
	rq, wasInterrupted := s.interrupted[id]
	issued := canonical && seq <= s.seq
	s.mu.Unlock()
	switch {
	case wasInterrupted:
		// 200 with a terminal status, mirroring a failed job: the daemon
		// knows exactly what happened to this id, it did not lose it.
		writeJSON(w, http.StatusOK, JobStatus{
			ID: id, Status: jobInterrupted, Request: rq,
			Error: &Problem{
				Title:  "job interrupted",
				Detail: "the daemon restarted while this job was in flight; resubmit to rerun it (completed cells are served warm from the store)",
				Phase:  jobInterrupted,
			},
		})
	case issued:
		writeProblem(w, http.StatusGone, "job evicted",
			fmt.Sprintf("job %q completed and was evicted after its retention window", id))
	default:
		writeProblem(w, http.StatusNotFound, "unknown job", fmt.Sprintf("no job %q", id))
	}
	return nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

// handleJobCancel cancels an in-flight job. The job then finishes as
// failed with the typed cancellation error (sim.SimError, phase
// "cancelled"); cancelling a finished job is a no-op. Either way the
// current snapshot is returned.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.stop()
	writeJSON(w, http.StatusOK, j.snapshot())
}
