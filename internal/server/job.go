package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	duplo "duplo/internal/core"
	"duplo/internal/experiments"
	"duplo/internal/sim"
	"duplo/internal/store"
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
	// A batch-overridden kernel is named like Fig. 13's sweep, so it has
	// its own cache/store slot.
	k, err := experiments.BatchKernel(l, rq.Batch)
	if err != nil {
		return nil, sim.Config{}, err
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

// Job states as the wire names them.
const (
	jobQueued      = "queued"
	jobRunning     = "running"
	jobDone        = "done"
	jobFailed      = "failed"
	jobInterrupted = "interrupted"
)

// jobState is a job's state as the table keeps it.
type jobState uint8

const (
	stateQueued jobState = iota
	stateRunning
	stateDone
	stateFailed
	numJobStates
)

var jobStateNames = [numJobStates]string{jobQueued, jobRunning, jobDone, jobFailed}

// String returns the state's wire name.
func (st jobState) String() string { return jobStateNames[st] }

// job is one submitted run. The daemon retains every finished job for
// -job-ttl, so the record is packed into 80 B whatever the request: the
// id is formatted from seq on demand, the request's network and layer
// are its index in the Table I catalog, cancel is dropped at finish, and
// a done job shares the runner's memoized result. Server.mu guards
// state, cancel and out.
type job struct {
	seq    int64              // the id is jobID(seq)
	cancel context.CancelFunc // nil once finished
	out    any                // done: the runner's shared, read-only *sim.Result; failed: the error

	// The request, packed (a RunRequest is 88 B and holds two strings);
	// request unpacks it.
	batch, lhbEntries, lhbWays int
	maxCycles, wallTimeoutMS   int64
	layer                      uint8 // index into catalog
	duplo, lhbOracle           bool

	state jobState // stateQueued → stateRunning → stateDone | stateFailed
}

// catalog is the Table I layer list that a job's layer indexes.
var catalog = workload.AllLayers()

// newJob packs rq, a request that built, into a job in state st.
func newJob(rq RunRequest, st jobState) *job {
	j := &job{
		batch: rq.Batch, lhbEntries: rq.LHBEntries, lhbWays: rq.LHBWays,
		maxCycles: rq.MaxCycles, wallTimeoutMS: rq.WallTimeoutMS,
		duplo: rq.Duplo, lhbOracle: rq.LHBOracle,
		state: st,
	}
	for i, l := range catalog {
		if l.Network == rq.Network && l.Name == rq.Layer {
			j.layer = uint8(i)
			break
		}
	}
	return j
}

// request returns the job's RunRequest as it was submitted.
func (j *job) request() RunRequest {
	l := catalog[j.layer]
	return RunRequest{
		Network: l.Network, Layer: l.Name, Batch: j.batch,
		Duplo: j.duplo, LHBEntries: j.lhbEntries, LHBWays: j.lhbWays, LHBOracle: j.lhbOracle,
		MaxCycles: j.maxCycles, WallTimeoutMS: j.wallTimeoutMS,
	}
}

// id is the job's external id.
func (j *job) id() string { return jobID(j.seq) }

// setState moves j to st and keeps the per-state counts in step.
// Callers hold s.mu.
func (s *Server) setState(j *job, st jobState) {
	s.counts[j.state]--
	j.state = st
	s.counts[st]++
}

// startJob marks a queued job running once it wins an execution slot.
func (s *Server) startJob(j *job) {
	s.mu.Lock()
	s.setState(j, stateRunning)
	s.mu.Unlock()
}

// stopJob cancels the job if it has not finished.
func (s *Server) stopJob(j *job) {
	s.mu.Lock()
	cancel := j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// snapshot renders the job's externally visible state.
func (s *Server) snapshot(j *job) JobStatus {
	s.mu.Lock()
	st, out := j.state, j.out
	s.mu.Unlock()
	js := JobStatus{ID: j.id(), Status: st.String(), Request: j.request()}
	switch st {
	case stateFailed:
		js.Error = simProblem(out.(error))
	case stateDone:
		rec := store.RecordOf(*out.(*sim.Result))
		js.Result = &rec
	}
	return js
}

// JobStatus is the GET /v1/runs/{id} body.
type JobStatus struct {
	ID      string     `json:"id"`
	Status  string     `json:"status"` // queued | running | done | failed | interrupted
	Request RunRequest `json:"request"`
	// Result is the persisted shape: the full Stats block plus CTA
	// accounting, as internal/store writes it to disk.
	Result *store.Record `json:"result,omitempty"`
	Error  *Problem      `json:"error,omitempty"`
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
	st := stateRunning
	if queued {
		st = stateQueued
	}
	j := newJob(rq, st)
	j.cancel = cancel
	s.mu.Lock()
	s.seq++
	j.seq = s.seq
	s.jobs[j.seq] = j
	s.counts[j.state]++
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
				s.startJob(j)
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

	writeJSON(w, http.StatusAccepted, s.snapshot(j))
}

// finishJob records a job's terminal state, queues it for TTL eviction,
// and journals it.
func (s *Server) finishJob(j *job, res *sim.Result, err error) {
	st, out := stateDone, any(res)
	if err != nil {
		st, out = stateFailed, err
	}
	s.mu.Lock()
	s.setState(j, st)
	j.out, j.cancel = out, nil
	if s.jobTTL > 0 {
		// Stamped under s.mu, so the queue is in finish order.
		s.finished = append(s.finished, finishedJob{seq: j.seq, at: s.now().Sub(s.epoch)})
	}
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.End(j.id(), st.String())
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
		writeJSON(w, http.StatusOK, s.snapshot(j))
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
	s.stopJob(j)
	writeJSON(w, http.StatusOK, s.snapshot(j))
}
