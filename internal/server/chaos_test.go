package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"duplo/internal/fault"
	"duplo/internal/sim"
	"duplo/internal/store"
)

// chaosServer boots a Server with the full robustness config under
// httptest.
func chaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postRaw posts v and returns the raw response (the caller closes it) —
// for tests that need status AND headers.
func postRaw(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// chaosSubmit and chaosPoll are goroutine-safe variants of the
// postJSON/pollJob helpers (no t.Fatal off the test goroutine).
func chaosSubmit(base string, rq RunRequest) (JobStatus, error) {
	var js JobStatus
	body, err := json.Marshal(rq)
	if err != nil {
		return js, err
	}
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return js, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return js, fmt.Errorf("decode submit response: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return js, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	return js, nil
}

func chaosPoll(base, id string, deadline time.Duration) (JobStatus, error) {
	var js JobStatus
	until := time.Now().Add(deadline)
	for {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			return js, err
		}
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil {
			return js, fmt.Errorf("decode poll response: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return js, fmt.Errorf("poll %s: status %d", id, resp.StatusCode)
		}
		if js.Status != jobRunning && js.Status != jobQueued {
			return js, nil
		}
		if time.Now().After(until) {
			return js, fmt.Errorf("job %s still %s after %v", id, js.Status, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosConcurrentClientsUnderFaults is the acceptance gate for the
// whole robustness layer: three concurrent clients hammer a daemon whose
// store reads, store writes, payload integrity, and simulator all fail at
// 10% each. Every job must terminate as done or as a typed problem; every
// done result must be byte-for-byte the fault-free ground truth (a
// corrupted payload may cost warmth, never correctness); and once the
// faults stop, the circuit breaker must close and /healthz must return
// to ok.
func TestChaosConcurrentClientsUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.Parse("store-read:p=0.1;store-write:p=0.1;corrupt:p=0.1;sim:p=0.1", 20260808)
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaults(in)
	st.EnableResilience(store.ResilienceConfig{
		FailureThreshold: 3,
		OpenFor:          50 * time.Millisecond,
		Retries:          1,
		RetryBase:        time.Millisecond,
		Sleep:            func(time.Duration) {}, // no real sleeping in tests
	})
	opts := quickOpts()
	opts.Faults = in
	_, hs := chaosServer(t, Config{Options: opts, Store: st, MaxInflight: 4, QueueCap: 64})

	cells := []RunRequest{
		{Network: "ResNet", Layer: "C2"},
		{Network: "ResNet", Layer: "C2", Duplo: true},
		{Network: "GAN", Layer: "TC4", Duplo: true},
	}
	// Ground truth: the same cells simulated directly, fault-free.
	want := make([]sim.Stats, len(cells))
	for i, rq := range cells {
		k, cfg, err := rq.build(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Stats
	}

	const clients, perClient = 3, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	var problems []string
	report := func(format string, args ...interface{}) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				cell := (c + i) % len(cells)
				js, err := chaosSubmit(hs.URL, cells[cell])
				if err != nil {
					report("client %d submit %d: %v", c, i, err)
					continue
				}
				js, err = chaosPoll(hs.URL, js.ID, 60*time.Second)
				if err != nil {
					report("client %d job %s: %v", c, js.ID, err)
					continue
				}
				switch js.Status {
				case jobDone:
					if js.Result == nil {
						report("job %s done with no result", js.ID)
					} else if !reflect.DeepEqual(js.Result.Stats, want[cell]) {
						report("job %s served a wrong result under faults:\n got %+v\nwant %+v",
							js.ID, js.Result.Stats, want[cell])
					}
				case jobFailed:
					if js.Error == nil || js.Error.Phase != sim.PhasePanic {
						report("job %s failed without the typed injected-fault problem: %+v", js.ID, js.Error)
					}
				default:
					report("job %s non-terminal status %q", js.ID, js.Status)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, p := range problems {
		t.Error(p)
	}

	// Faults stop; fresh traffic drives the breaker's half-open probe, and
	// /healthz converges back to ok (the degraded deltas drain, the breaker
	// closes). Distinct batch sizes force store traffic past the memo tier.
	in.Disable()
	deadline := time.Now().Add(15 * time.Second)
	for batch := 2; ; batch++ {
		if time.Now().After(deadline) {
			var h HealthZ
			getJSON(t, hs.URL+"/healthz", &h)
			t.Fatalf("healthz never recovered to ok after faults stopped: %+v", h)
		}
		js, err := chaosSubmit(hs.URL, RunRequest{Network: "ResNet", Layer: "C2", Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if js, err = chaosPoll(hs.URL, js.ID, 60*time.Second); err != nil || js.Status != jobDone {
			t.Fatalf("post-recovery job: %v (status %+v)", err, js)
		}
		var h HealthZ
		if code := getJSON(t, hs.URL+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz: status %d", code)
		}
		if h.Status == "ok" {
			if h.Breaker != nil && h.Breaker.State != store.BreakerClosed {
				t.Fatalf("healthz ok but breaker %+v", h.Breaker)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerAdmissionShedding pins the deterministic load-shedding
// contract: with one execution slot and a one-deep queue, the first job
// runs, the second queues, the third is shed 429 with Retry-After, and
// cancelled queued jobs finish with the typed cancellation problem
// without ever simulating.
func TestServerAdmissionShedding(t *testing.T) {
	in, err := fault.Parse("sim-delay:every=1,delay=30s", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.Faults = in
	s, hs := chaosServer(t, Config{Options: opts, MaxInflight: 1, QueueCap: 1})

	var j1, j2 JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &j1); code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	if j1.Status != jobRunning {
		t.Errorf("job 1 status %q, want running (slot claimed at submit)", j1.Status)
	}
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2", Duplo: true}, &j2); code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", code)
	}
	if j2.Status != jobQueued {
		t.Errorf("job 2 status %q, want queued", j2.Status)
	}

	resp := postRaw(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C3"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("shed response Retry-After = %q, want \"1\"", ra)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decode shed problem: %v", err)
	}
	if p.Status != http.StatusTooManyRequests || p.Title != "server at capacity" {
		t.Errorf("shed problem = %+v", p)
	}

	var stz StatsZ
	getJSON(t, hs.URL+"/statsz", &stz)
	if stz.JobsRunning != 1 || stz.JobsQueued != 1 || stz.JobsShed != 1 {
		t.Errorf("statsz running=%d queued=%d shed=%d, want 1/1/1",
			stz.JobsRunning, stz.JobsQueued, stz.JobsShed)
	}

	// Cancel the queued job first: it must finish with the typed
	// cancelled-while-queued problem, having never won the slot (job 1 is
	// mid-execution, so the exec count must not move).
	execsBefore := s.runner.Execs()
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+j2.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	js := pollJob(t, hs.URL, j2.ID, 5*time.Second)
	if js.Status != jobFailed || js.Error == nil || js.Error.Phase != sim.PhaseCancelled {
		t.Errorf("cancelled queued job = %q %+v, want failed/cancelled", js.Status, js.Error)
	}
	if got := s.runner.Execs(); got != execsBefore {
		t.Errorf("cancelled queued job executed a simulation (execs %d -> %d)", execsBefore, got)
	}

	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+j1.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	js = pollJob(t, hs.URL, j1.ID, 5*time.Second)
	if js.Status != jobFailed || js.Error == nil || js.Error.Phase != sim.PhaseCancelled {
		t.Errorf("cancelled running job = %q %+v, want failed/cancelled", js.Status, js.Error)
	}
}

// TestServerSweepShedding: beyond MaxSweeps concurrent streams, sweep
// requests shed deterministically with 503 + Retry-After.
func TestServerSweepShedding(t *testing.T) {
	s, hs := chaosServer(t, Config{Options: quickOpts(), MaxSweeps: 1})
	s.sweepSem <- struct{}{} // occupy the only slot
	defer func() { <-s.sweepSem }()

	resp, err := http.Get(hs.URL + "/v1/sweeps/fig9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep over cap: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Errorf("shed sweep Retry-After = %q, want \"5\"", ra)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decode shed problem: %v", err)
	}
	if p.Title != "too many sweeps" {
		t.Errorf("shed problem = %+v", p)
	}
	var stz StatsZ
	getJSON(t, hs.URL+"/statsz", &stz)
	if stz.SweepsShed != 1 {
		t.Errorf("SweepsShed = %d, want 1", stz.SweepsShed)
	}
}

// TestServerBodyLimit: an oversized POST body gets the typed 413 problem,
// not a connection reset or a generic 400.
func TestServerBodyLimit(t *testing.T) {
	_, hs := chaosServer(t, Config{Options: quickOpts(), MaxBodyBytes: 16})
	resp := postRaw(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decode 413 problem: %v", err)
	}
	if p.Title != "request body too large" {
		t.Errorf("413 problem = %+v", p)
	}
}

// mutexClock is a goroutine-safe virtual clock for the Now seam (handlers
// and job goroutines read it concurrently with the test's advances).
type mutexClock struct {
	mu sync.Mutex
	at time.Time
}

func (c *mutexClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *mutexClock) advance(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

// TestServerJobTTLEviction: finished jobs age out of the id map after
// JobTTL; GETs of evicted ids say 410 gone (the daemon issued the id),
// never-issued ids stay 404, and the eviction is counted.
func TestServerJobTTLEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ck := &mutexClock{at: time.Unix(1_700_000_000, 0)}
	_, hs := chaosServer(t, Config{Options: quickOpts(), JobTTL: time.Hour, Now: ck.now})

	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := js.ID
	if js = pollJob(t, hs.URL, id, 30*time.Second); js.Status != jobDone {
		t.Fatalf("job finished %q, want done", js.Status)
	}
	// Within the TTL the job is still served.
	if code := getJSON(t, hs.URL+"/v1/runs/"+id, &js); code != http.StatusOK {
		t.Fatalf("pre-eviction GET: status %d", code)
	}

	ck.advance(2 * time.Hour)
	resp, err := http.Get(hs.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted GET: status %d, want 410", resp.StatusCode)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decode 410 problem: %v", err)
	}
	if p.Title != "job evicted" {
		t.Errorf("410 problem = %+v", p)
	}

	// Ids the daemon never issued are a plain 404, evicted or not.
	if code := getJSON(t, hs.URL+"/v1/runs/r999999", &p); code != http.StatusNotFound {
		t.Errorf("never-issued id: status %d, want 404", code)
	}
	if code := getJSON(t, hs.URL+"/v1/runs/bogus", &p); code != http.StatusNotFound {
		t.Errorf("malformed id: status %d, want 404", code)
	}
	// Other spellings of the issued id were never issued either.
	for _, alias := range []string{"r1", "r0000001", "r+1", "r%201", "r1abc"} {
		if code := getJSON(t, hs.URL+"/v1/runs/"+alias, &p); code != http.StatusNotFound {
			t.Errorf("GET of non-canonical id %q: status %d, want 404", alias, code)
		}
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+alias, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE of non-canonical id %q: status %d, want 404", alias, resp.StatusCode)
		}
	}

	var stz StatsZ
	getJSON(t, hs.URL+"/statsz", &stz)
	if stz.JobsEvicted != 1 || stz.JobsTotal != 0 {
		t.Errorf("statsz evicted=%d total=%d, want 1/0", stz.JobsEvicted, stz.JobsTotal)
	}
}

// TestServerHealthzDegradedRecovers: a store put failure flips /healthz
// to degraded (503 under ?strict=1, 200 plain), and the next check —
// with no new failures — reports ok again: health reflects *new* damage,
// not history.
func TestServerHealthzDegradedRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.Parse("store-write:nth=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaults(in)
	_, hs := chaosServer(t, Config{Options: quickOpts(), Store: st})

	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if js = pollJob(t, hs.URL, js.ID, 30*time.Second); js.Status != jobDone {
		t.Fatalf("job finished %q (error %+v), want done despite the failed persist", js.Status, js.Error)
	}

	var h HealthZ
	if code := getJSON(t, hs.URL+"/healthz?strict=1", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("strict healthz after put failure: status %d, want 503", code)
	}
	if h.Status != "degraded" || len(h.Reasons) == 0 {
		t.Errorf("healthz = %+v, want degraded with reasons", h)
	}

	// The delta is consumed; no new failures since, so health recovers.
	if code := getJSON(t, hs.URL+"/healthz?strict=1", &h); code != http.StatusOK {
		t.Fatalf("strict healthz after recovery: status %d, want 200", code)
	}
	if h.Status != "ok" {
		t.Errorf("healthz = %+v, want ok", h)
	}
}

// writeJournalLines writes a hand-crafted journal file simulating a
// daemon that died mid-job (including a torn trailing line from the
// kill).
func writeJournalLines(t *testing.T, path string, lines ...string) {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServerCrashRecovery is the restart gate: a journal left by a killed
// daemon turns in-flight jobs into typed "interrupted" reports (not
// 404s), job numbering resumes past every id ever issued, and a restart
// over the same store serves previously computed cells warm with zero
// re-executions.
func TestServerCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	writeJournalLines(t, jpath,
		`{"op":"start","id":"r000001","request":{"network":"ResNet","layer":"C2"}}`,
		`{"op":"end","id":"r000001","status":"done"}`,
		`{"op":"start","id":"r000002","request":{"network":"GAN","layer":"TC4","duplo":true}}`,
		`{"op":"start","id":"r0000`, // torn by the kill
	)
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Interrupted(); len(got) != 1 || got["r000002"].Network != "GAN" {
		t.Fatalf("Interrupted() = %+v, want exactly r000002 (GAN/TC4)", got)
	}
	if j.MaxSeq() != 2 {
		t.Fatalf("MaxSeq() = %d, want 2", j.MaxSeq())
	}

	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	s1, hs1 := chaosServer(t, Config{Options: quickOpts(), Store: st, Journal: j})

	// The interrupted job is reported, not lost.
	var js JobStatus
	if code := getJSON(t, hs1.URL+"/v1/runs/r000002", &js); code != http.StatusOK {
		t.Fatalf("interrupted GET: status %d", code)
	}
	if js.Status != jobInterrupted || js.Error == nil || js.Error.Phase != jobInterrupted {
		t.Errorf("interrupted job = %q %+v", js.Status, js.Error)
	}
	if js.Request.Network != "GAN" || js.Request.Layer != "TC4" || !js.Request.Duplo {
		t.Errorf("interrupted job lost its request: %+v", js.Request)
	}
	// The pre-crash *completed* id is gone (it was issued, then the map
	// died with the process), never 404.
	var p Problem
	if code := getJSON(t, hs1.URL+"/v1/runs/r000001", &p); code != http.StatusGone {
		t.Errorf("pre-crash completed id: status %d, want 410", code)
	}
	var h HealthZ
	getJSON(t, hs1.URL+"/healthz", &h)
	if h.InterruptedJobs != 1 {
		t.Errorf("healthz InterruptedJobs = %d, want 1", h.InterruptedJobs)
	}

	// Numbering resumes past the journal's watermark.
	if code := postJSON(t, hs1.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if js.ID != "r000003" {
		t.Fatalf("post-restart job id = %q, want r000003 (resumed numbering)", js.ID)
	}
	if js = pollJob(t, hs1.URL, js.ID, 30*time.Second); js.Status != jobDone {
		t.Fatalf("job finished %q, want done", js.Status)
	}
	if execs := s1.runner.Execs(); execs != 1 {
		t.Fatalf("first boot executed %d simulations, want 1", execs)
	}

	// "Restart" again: close everything, reopen the journal over the same
	// store. The finished job's end record keeps it out of the interrupted
	// set, the watermark advances, and the warm store serves the repeat
	// with zero re-executions.
	hs1.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Interrupted(); len(got) != 1 || got["r000002"].Network != "GAN" {
		t.Fatalf("second boot Interrupted() = %+v, want still exactly r000002", got)
	}
	if j2.MaxSeq() != 3 {
		t.Fatalf("second boot MaxSeq() = %d, want 3", j2.MaxSeq())
	}
	s2, hs2 := chaosServer(t, Config{Options: quickOpts(), Store: st, Journal: j2})
	if code := postJSON(t, hs2.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &js); code != http.StatusAccepted {
		t.Fatalf("warm submit: status %d", code)
	}
	if js.ID != "r000004" {
		t.Fatalf("second boot job id = %q, want r000004", js.ID)
	}
	if js = pollJob(t, hs2.URL, js.ID, 30*time.Second); js.Status != jobDone {
		t.Fatalf("warm job finished %q, want done", js.Status)
	}
	if execs := s2.runner.Execs(); execs != 0 {
		t.Errorf("restarted daemon re-executed %d simulations, want 0 (warm store)", execs)
	}
	if hits := s2.runner.StoreHits(); hits != 1 {
		t.Errorf("restarted daemon took %d store hits, want 1", hits)
	}
}
