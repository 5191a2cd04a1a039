// Store resilience: transient-error retries with exponential backoff +
// jitter, and a circuit breaker that degrades the disk tier to memo-only
// operation instead of hammering a failing volume (DESIGN.md §12).
//
// The breaker is the classic three-state machine:
//
//	closed ──(FailureThreshold consecutive op failures)──▶ open
//	open ──(OpenFor elapses)──▶ half-open
//	half-open: exactly one op probes the disk; success ▶ closed,
//	           failure ▶ open again (dwell restarts)
//
// While open (or waiting behind the half-open probe), lookups degrade to
// clean misses and persists are skipped with ErrDegraded: jobs keep
// succeeding off the memo tier and re-simulation, nothing is lost but
// warmth. Every degradation, retry, trip, and probe is counted in the
// BreakerSnapshot that /statsz and /healthz surface.
package store

import (
	"errors"
	"sync"
	"time"
)

// Breaker states, as surfaced in BreakerSnapshot.State.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// ErrDegraded is returned (wrapped in *OpError) by Put while the breaker
// is open: the write was skipped, not attempted and failed.
var ErrDegraded = errors.New("circuit breaker open: store degraded to memo-only")

// ResilienceConfig tunes EnableResilience. Zero fields take the defaults
// noted on each, except Retries, whose zero means no retries; the zero
// value is a usable production configuration.
type ResilienceConfig struct {
	// FailureThreshold is how many consecutive op failures (each already
	// past its retry budget) trip the breaker. Default 5.
	FailureThreshold int
	// OpenFor is the open-state dwell before a half-open probe. Default 5s.
	OpenFor time.Duration
	// Retries is how many times a failed op is retried before it counts
	// as a failure: 0 means one attempt, and negatives count as 0.
	// duploserved's -store-retries defaults to 2 (three attempts total).
	Retries int
	// RetryBase is the backoff base: attempt k sleeps RetryBase<<k scaled
	// by a uniform jitter in [0.5, 1). Default 10ms.
	RetryBase time.Duration
	// Seed seeds the jitter stream (default 1) — deterministic like every
	// other random stream in this repo.
	Seed int64
	// Sleep and Now are test seams (nil = time.Sleep / time.Now).
	Sleep func(time.Duration)
	Now   func() time.Time
}

func (c *ResilienceConfig) fillDefaults() {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// BreakerSnapshot is a point-in-time view of the resilience layer for
// /statsz and /healthz. Fields are exact individually, not jointly.
type BreakerSnapshot struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	// Trips counts closed/half-open → open transitions.
	Trips int64 `json:"trips"`
	// Probes counts half-open probe attempts.
	Probes int64 `json:"probes"`
	// Retries counts retried op attempts (backoff sleeps taken).
	Retries int64 `json:"retries"`
	// DegradedGets/DegradedPuts count ops shed by an open breaker —
	// lookups degraded to misses, persists skipped.
	DegradedGets int64 `json:"degraded_gets"`
	DegradedPuts int64 `json:"degraded_puts"`
	// LastError is the most recent op failure, for the health report.
	LastError string `json:"last_error,omitempty"`
}

// resilience is the per-Store retry/breaker state. All fields are guarded
// by mu; store ops are per-simulation-cell, so one uncontended mutex per
// op is noise next to the file I/O it wraps.
type resilience struct {
	s   *Store
	cfg ResilienceConfig

	mu       sync.Mutex
	state    string
	consec   int
	openedAt time.Time
	probing  bool
	lastErr  string
	rng      uint64

	trips, probes, retries, degradedGets, degradedPuts int64
}

// EnableResilience wraps the store's Get/Put in the retry + breaker
// layer. Call once, before the store is shared across goroutines. All
// runners (and daemon sweeps) sharing this store share one breaker — the
// disk is one resource, so its health is daemon-wide state.
func (s *Store) EnableResilience(cfg ResilienceConfig) {
	cfg.fillDefaults()
	seed := uint64(cfg.Seed)
	splitmix64store(&seed)
	s.res = &resilience{s: s, cfg: cfg, state: BreakerClosed, rng: seed}
}

// Breaker snapshots the resilience layer, nil when EnableResilience was
// never called.
func (s *Store) Breaker() *BreakerSnapshot {
	if s.res == nil {
		return nil
	}
	r := s.res
	r.mu.Lock()
	defer r.mu.Unlock()
	return &BreakerSnapshot{
		State:               r.state,
		ConsecutiveFailures: r.consec,
		Trips:               r.trips,
		Probes:              r.probes,
		Retries:             r.retries,
		DegradedGets:        r.degradedGets,
		DegradedPuts:        r.degradedPuts,
		LastError:           r.lastErr,
	}
}

// allow decides whether an op may touch the disk right now. probe marks
// the single op allowed through a half-open breaker; its outcome decides
// the next state.
func (r *resilience) allow() (ok, probe bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == BreakerOpen {
		if r.cfg.Now().Sub(r.openedAt) < r.cfg.OpenFor {
			return false, false
		}
		r.state = BreakerHalfOpen
	}
	if r.state == BreakerHalfOpen {
		if r.probing {
			return false, false
		}
		r.probing = true
		r.probes++
		return true, true
	}
	return true, false
}

// outcome folds one op's final result (after retries) into the state
// machine.
func (r *resilience) outcome(err error, probe bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if probe {
		r.probing = false
	}
	if err == nil {
		r.consec = 0
		if r.state == BreakerHalfOpen {
			r.state = BreakerClosed
		}
		return
	}
	r.lastErr = err.Error()
	r.consec++
	if r.state == BreakerHalfOpen || r.consec >= r.cfg.FailureThreshold {
		if r.state != BreakerOpen {
			r.trips++
		}
		r.state = BreakerOpen
		r.openedAt = r.cfg.Now()
		r.consec = 0
		r.probing = false
	}
}

// backoff sleeps attempt k's jittered exponential delay.
func (r *resilience) backoff(attempt int) {
	d := r.cfg.RetryBase << uint(attempt)
	r.mu.Lock()
	r.retries++
	// Full-ish jitter: scale by a uniform factor in [0.5, 1) so retrying
	// workers desynchronize instead of stampeding the disk in lockstep.
	f := 0.5 + 0.5*float64(splitmix64store(&r.rng)>>11)/(1<<53)
	r.mu.Unlock()
	r.cfg.Sleep(time.Duration(float64(d) * f))
}

// lookup is the resilient Get: breaker-gated, transient errors retried,
// failures degraded to clean misses (the caller re-simulates — the memo
// tier and the simulator are the availability story, the disk is only
// warmth).
func (r *resilience) lookup(key string) (Record, bool) {
	ok, probe := r.allow()
	if !ok {
		r.mu.Lock()
		r.degradedGets++
		r.mu.Unlock()
		return Record{}, false
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		rec, hit, err := r.s.lookup(key)
		if err == nil {
			r.outcome(nil, probe)
			return rec, hit
		}
		lastErr = err
		if attempt >= r.cfg.Retries {
			break
		}
		r.backoff(attempt)
	}
	r.outcome(lastErr, probe)
	return Record{}, false
}

// put is the resilient Put: breaker-gated, retried; an open breaker skips
// the write with a typed ErrDegraded instead of queueing against a dead
// disk.
func (r *resilience) put(key string, rec Record) error {
	ok, probe := r.allow()
	if !ok {
		r.mu.Lock()
		r.degradedPuts++
		r.mu.Unlock()
		return &OpError{Op: "put", Key: key, Err: ErrDegraded}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := r.s.putCounted(key, rec)
		if err == nil {
			r.outcome(nil, probe)
			return nil
		}
		lastErr = err
		if attempt >= r.cfg.Retries {
			break
		}
		r.backoff(attempt)
	}
	r.outcome(lastErr, probe)
	return lastErr
}

// splitmix64store is the jitter stream's mixer (the same constants as
// internal/serving's RNG; duplicated so store does not import the DES).
func splitmix64store(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
