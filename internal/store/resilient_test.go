package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"duplo/internal/fault"
)

// quickResilience is the test configuration: no real sleeping (backoffs
// are recorded, not taken) and a virtual clock the test advances by hand,
// so every breaker transition is deterministic.
type clock struct{ at time.Time }

func (c *clock) now() time.Time          { return c.at }
func (c *clock) advance(d time.Duration) { c.at = c.at.Add(d) }
func noSleep(slept *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *slept = append(*slept, d) }
}

func resilientStore(t *testing.T, spec string, threshold, retries int) (*Store, *fault.Injector, *clock, *[]time.Duration) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(in)
	ck := &clock{at: time.Unix(1_700_000_000, 0)}
	var slept []time.Duration
	s.EnableResilience(ResilienceConfig{
		FailureThreshold: threshold,
		OpenFor:          5 * time.Second,
		Retries:          retries,
		RetryBase:        10 * time.Millisecond,
		Sleep:            noSleep(&slept),
		Now:              ck.now,
	})
	return s, in, ck, &slept
}

// TestResilientRetryRecovers: a lookup whose first attempt hits a
// transient fault retries (with a jittered backoff) and serves the hit —
// the caller never sees the blip.
func TestResilientRetryRecovers(t *testing.T) {
	s, _, _, slept := resilientStore(t, "store-read:nth=1", 5, 2)
	if err := s.Put(testKey, testRecord(t)); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.Get(testKey)
	if !ok {
		t.Fatal("retried lookup missed despite an intact record")
	}
	if rec.Stats.Cycles == 0 {
		t.Fatal("retried lookup returned an empty record")
	}
	if len(*slept) != 1 {
		t.Fatalf("took %d backoffs, want 1", len(*slept))
	}
	// Jittered exponential: attempt 0 sleeps in [base/2, base).
	if d := (*slept)[0]; d < 5*time.Millisecond || d >= 10*time.Millisecond {
		t.Errorf("backoff %v outside [5ms, 10ms)", d)
	}
	c := s.Counters()
	if c.ReadErrors != 1 || c.Hits != 1 {
		t.Errorf("counters = %+v, want 1 read error and 1 hit", c)
	}
	b := s.Breaker()
	if b.State != BreakerClosed || b.Retries != 1 || b.ConsecutiveFailures != 0 {
		t.Errorf("breaker = %+v, want closed with 1 retry and 0 consecutive failures", b)
	}
}

// TestResilientZeroRetries: Retries 0 means no retries. With every read
// faulted, one lookup makes one read attempt and sleeps no backoff.
func TestResilientZeroRetries(t *testing.T) {
	s, in, _, slept := resilientStore(t, "store-read:every=1", 5, 0)
	if err := s.Put(testKey, testRecord(t)); err != nil {
		t.Fatal(err)
	}
	calls := in.Calls(fault.OpStoreRead)
	if _, ok := s.Get(testKey); ok {
		t.Fatal("faulted lookup hit")
	}
	if n := in.Calls(fault.OpStoreRead) - calls; n != 1 {
		t.Errorf("one lookup made %d read attempts, want 1", n)
	}
	if len(*slept) != 0 {
		t.Errorf("took %d backoffs, want 0", len(*slept))
	}
	if b := s.Breaker(); b.Retries != 0 || b.ConsecutiveFailures != 1 {
		t.Errorf("breaker = %+v, want 0 retries and 1 consecutive failure", b)
	}
}

// TestResilientBreakerLifecycle drives the full state machine: trip on
// consecutive failures, degrade while open, half-open after the dwell,
// re-open on a failed probe, close on a successful one.
func TestResilientBreakerLifecycle(t *testing.T) {
	// Every read fails; retries=0 so each lookup is one attempt and one
	// failure.
	s, in, ck, _ := resilientStore(t, "store-read:every=1", 2, 0)
	if err := s.Put(testKey, testRecord(t)); err != nil {
		t.Fatal(err)
	}

	// Two failing lookups trip the breaker.
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(testKey); ok {
			t.Fatal("faulted lookup hit")
		}
	}
	b := s.Breaker()
	if b.State != BreakerOpen || b.Trips != 1 {
		t.Fatalf("after threshold failures breaker = %+v, want open with 1 trip", b)
	}
	if b.LastError == "" {
		t.Error("open breaker reports no last error")
	}

	// While open, lookups degrade to clean misses without touching the
	// disk: the injector's read counter must not advance.
	calls := in.Calls(fault.OpStoreRead)
	if _, ok := s.Get(testKey); ok {
		t.Fatal("degraded lookup hit")
	}
	if in.Calls(fault.OpStoreRead) != calls {
		t.Error("degraded lookup touched the disk")
	}
	if b := s.Breaker(); b.DegradedGets != 1 {
		t.Errorf("DegradedGets = %d, want 1", b.DegradedGets)
	}

	// Degraded puts are skipped with the typed ErrDegraded.
	err := s.Put(testKey, testRecord(t))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded put error = %v, want ErrDegraded", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Op != "put" {
		t.Errorf("degraded put error = %T %v, want *OpError{Op: put}", err, err)
	}
	if b := s.Breaker(); b.DegradedPuts != 1 {
		t.Errorf("DegradedPuts = %d, want 1", b.DegradedPuts)
	}

	// After the dwell, a half-open probe runs — faults still armed, so it
	// fails and the breaker re-opens (trip 2).
	ck.advance(6 * time.Second)
	if _, ok := s.Get(testKey); ok {
		t.Fatal("failing probe hit")
	}
	b = s.Breaker()
	if b.State != BreakerOpen || b.Trips != 2 || b.Probes != 1 {
		t.Fatalf("after failed probe breaker = %+v, want re-opened with 1 probe", b)
	}

	// Faults stop; after another dwell the probe succeeds and the breaker
	// closes — the stored record is served again.
	in.Disable()
	ck.advance(6 * time.Second)
	if _, ok := s.Get(testKey); !ok {
		t.Fatal("recovering probe missed")
	}
	b = s.Breaker()
	if b.State != BreakerClosed || b.Probes != 2 {
		t.Fatalf("after recovery breaker = %+v, want closed with 2 probes", b)
	}
	if _, ok := s.Get(testKey); !ok {
		t.Fatal("closed-breaker lookup missed")
	}
}

// TestResilientReadErrorKeepsFile: a transient read error must not
// destroy the record — unlike corruption, it says nothing about the
// bytes (satellite: the destructive remove-on-any-error of the seed
// would lose warmth under a flaky disk).
func TestResilientReadErrorKeepsFile(t *testing.T) {
	s, in, _, _ := resilientStore(t, "store-read:every=1", 100, 0)
	if err := s.Put(testKey, testRecord(t)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey); ok {
		t.Fatal("faulted lookup hit")
	}
	if _, err := os.Stat(s.Path(testKey)); err != nil {
		t.Fatalf("record vanished after a transient read error: %v", err)
	}
	in.Disable()
	if _, ok := s.Get(testKey); !ok {
		t.Fatal("record unreadable after faults stopped")
	}
}

// TestPutInjectedWriteFailure: an injected ENOSPC-style write error
// returns the typed *OpError, increments PutErrors, and leaves no partial
// temp files behind (satellite: store write-failure coverage).
func TestPutInjectedWriteFailure(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.Parse("store-write:every=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(in)

	perr := s.Put(testKey, testRecord(t))
	var oe *OpError
	if !errors.As(perr, &oe) || oe.Op != "put" || oe.Key != testKey {
		t.Fatalf("put error = %T %v, want *OpError{Op: put}", perr, perr)
	}
	if !errors.Is(perr, fault.ErrInjected) {
		t.Errorf("put error does not unwrap to the injected fault: %v", perr)
	}
	if c := s.Counters(); c.PutErrors != 1 || c.Puts != 0 {
		t.Errorf("counters = %+v, want 1 put error and 0 puts", c)
	}
	assertNoTempFiles(t, s.Dir())
	if _, ok := s.Get(testKey); ok {
		t.Error("failed put left a readable record")
	}

	// The slot heals once the fault clears.
	in.Disable()
	if err := s.Put(testKey, testRecord(t)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey); !ok {
		t.Error("healed slot missed")
	}
}

// TestPutReadOnlyDir: a Put against an unwritable destination fails with
// the typed error, counts, and leaves no temp files. Skipped when the
// process can write anyway (root ignores permission bits).
func TestPutReadOnlyDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) }) //nolint:errcheck
	if f, err := os.CreateTemp(dir, ".probe-*"); err == nil {
		f.Close()
		os.Remove(f.Name())
		t.Skip("process writes through a read-only dir (running as root)")
	}

	perr := s.Put(testKey, testRecord(t))
	var oe *OpError
	if !errors.As(perr, &oe) || oe.Op != "put" {
		t.Fatalf("put error = %T %v, want *OpError{Op: put}", perr, perr)
	}
	if c := s.Counters(); c.PutErrors != 1 {
		t.Errorf("PutErrors = %d, want 1", c.PutErrors)
	}
	assertNoTempFiles(t, dir)
}

// TestResilientPutRetries: a one-shot write fault is absorbed by the
// retry budget; the record lands.
func TestResilientPutRetries(t *testing.T) {
	s, _, _, slept := resilientStore(t, "store-write:nth=1", 5, 2)
	if err := s.Put(testKey, testRecord(t)); err != nil {
		t.Fatalf("retried put failed: %v", err)
	}
	if len(*slept) != 1 {
		t.Fatalf("took %d backoffs, want 1", len(*slept))
	}
	if _, ok := s.Get(testKey); !ok {
		t.Fatal("record missing after retried put")
	}
	if c := s.Counters(); c.PutErrors != 1 || c.Puts != 1 {
		t.Errorf("counters = %+v, want 1 put error then 1 put", c)
	}
}

// assertNoTempFiles walks dir and fails on any leftover ".put-" temp
// file: failed writes must clean up after themselves.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && len(d.Name()) > 5 && d.Name()[:5] == ".put-" {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
