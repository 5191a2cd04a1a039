package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// quickOpts is the test scale: small enough that one cell simulates in
// tens of milliseconds.
func quickOpts() experiments.Options {
	return experiments.Options{MaxCTAs: 8, SimSMs: 2, Workers: 4}
}

// newTestServer boots a Server over httptest. The store is optional.
func newTestServer(t *testing.T, opts experiments.Options, st *store.Store) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Options: opts, Store: st})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postJSON posts v and decodes the response into out, returning the status.
func postJSON(t *testing.T, url string, v interface{}, out interface{}) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url into out, returning the status.
func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollJob polls GET /v1/runs/{id} until the job leaves "running" or the
// deadline passes.
func pollJob(t *testing.T, base, id string, deadline time.Duration) JobStatus {
	t.Helper()
	var js JobStatus
	until := time.Now().Add(deadline)
	for {
		if code := getJSON(t, base+"/v1/runs/"+id, &js); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if js.Status != jobRunning && js.Status != jobQueued {
			return js
		}
		if time.Now().After(until) {
			t.Fatalf("job %s still running after %v", id, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerSubmitPollResult is the end-to-end happy path: submit → poll →
// the job's result is field-for-field the same Stats a direct sim.Run of
// the identical kernel/config produces.
func TestServerSubmitPollResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := quickOpts()
	_, hs := newTestServer(t, opts, nil)

	rq := RunRequest{Network: "ResNet", Layer: "C2", Duplo: true}
	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", rq, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if js.ID == "" {
		t.Fatal("submit returned no job id")
	}
	js = pollJob(t, hs.URL, js.ID, 30*time.Second)
	if js.Status != jobDone || js.Result == nil {
		t.Fatalf("job finished %q (error %+v), want done", js.Status, js.Error)
	}

	k, cfg, err := rq.build(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(js.Result.Stats, want.Stats) {
		t.Fatalf("served stats differ from direct sim.Run:\n got %+v\nwant %+v", js.Result.Stats, want.Stats)
	}
	if js.Result.SimulatedCTAs != want.SimulatedCTAs || js.Result.TotalCTAs != want.TotalCTAs {
		t.Fatalf("CTA accounting differs: got %d/%d want %d/%d",
			js.Result.SimulatedCTAs, js.Result.TotalCTAs, want.SimulatedCTAs, want.TotalCTAs)
	}
}

// TestRunRequestBatchKernel pins job kernel names: a batch override runs
// the kernel Fig. 13's sweep names, so it shares that sweep's run keys and
// never another batch's.
func TestRunRequestBatchKernel(t *testing.T) {
	for _, tc := range []struct {
		batch, n int
		name     string
	}{{0, 8, "ResNet/C2"}, {16, 16, "ResNet/C2@b16"}} {
		k, _, err := RunRequest{Network: "ResNet", Layer: "C2", Batch: tc.batch}.build(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if k.Name != tc.name || k.Conv.N != tc.n {
			t.Errorf("batch %d: kernel %q at batch %d, want %q at %d", tc.batch, k.Name, k.Conv.N, tc.name, tc.n)
		}
	}
}

// TestServerConcurrentDedup pins the millions-of-users property at n=2:
// two clients submitting the same cell concurrently produce exactly one
// simulation — asserted via the runner's exec counter and the store's
// write counter (one record, not two).
func TestServerConcurrentDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, quickOpts(), st)

	rq := RunRequest{Network: "ResNet", Layer: "C2", Duplo: true, LHBEntries: 512}
	const clients = 2
	ids := make([]string, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			var js JobStatus
			if code := postJSON(t, hs.URL+"/v1/runs", rq, &js); code != http.StatusAccepted {
				t.Errorf("client %d: submit status %d", i, code)
				return
			}
			ids[i] = js.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var results []JobStatus
	for _, id := range ids {
		js := pollJob(t, hs.URL, id, 30*time.Second)
		if js.Status != jobDone {
			t.Fatalf("job %s finished %q (error %+v)", id, js.Status, js.Error)
		}
		results = append(results, js)
	}
	if !reflect.DeepEqual(results[0].Result, results[1].Result) {
		t.Fatal("coalesced clients got different results")
	}
	if n := s.runner.Execs(); n != 1 {
		t.Fatalf("runner executed %d simulations for %d identical clients, want 1", n, clients)
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("store recorded %d puts, want 1 (stats %+v)", c.Puts, c)
	}
}

// TestServerWarmRestart pins cross-process warmth: a second daemon over
// the same store directory serves the first one's cell without
// simulating at all.
func TestServerWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	rq := RunRequest{Network: "GAN", Layer: "TC4", Duplo: true}

	run := func() (js JobStatus, execs int64, hits int64) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, hs := newTestServer(t, quickOpts(), st)
		if code := postJSON(t, hs.URL+"/v1/runs", rq, &js); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		js = pollJob(t, hs.URL, js.ID, 30*time.Second)
		return js, s.runner.Execs(), s.runner.StoreHits()
	}

	cold, coldExecs, _ := run()
	warm, warmExecs, warmHits := run()
	if cold.Status != jobDone || warm.Status != jobDone {
		t.Fatalf("statuses %q/%q, want done/done", cold.Status, warm.Status)
	}
	if coldExecs != 1 {
		t.Fatalf("cold daemon executed %d simulations, want 1", coldExecs)
	}
	if warmExecs != 0 || warmHits != 1 {
		t.Fatalf("warm daemon executed %d simulations (%d store hits), want 0 (1)", warmExecs, warmHits)
	}
	if !reflect.DeepEqual(cold.Result, warm.Result) {
		t.Fatalf("warm result differs from cold:\n got %+v\nwant %+v", warm.Result, cold.Result)
	}
}

// TestServerCancelMidJob pins the typed-error path: cancelling an
// in-flight job finishes it as failed with the structured "cancelled"
// problem, not a hang or a prose-only error.
func TestServerCancelMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Full grid on the largest layer: minutes of work, so the DELETE
	// always lands mid-run.
	opts := quickOpts()
	opts.MaxCTAs = 0
	_, hs := newTestServer(t, opts, nil)

	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C1"}, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := js.ID

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	js = pollJob(t, hs.URL, id, 30*time.Second)
	if js.Status != jobFailed || js.Error == nil {
		t.Fatalf("cancelled job finished %q (error %+v), want failed with a problem", js.Status, js.Error)
	}
	if js.Error.Phase != sim.PhaseCancelled {
		t.Fatalf("problem phase %q, want %q (problem %+v)", js.Error.Phase, sim.PhaseCancelled, js.Error)
	}
}

// TestServerSweepNDJSON pins the streaming contract: start, at least one
// progress line, the assembled table, and a final done event whose
// counters account for every cell.
func TestServerSweepNDJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := quickOpts()
	l, err := workload.Find("ResNet", "C2")
	if err != nil {
		t.Fatal(err)
	}
	opts.Layers = []workload.Layer{l}
	_, hs := newTestServer(t, opts, nil)

	resp, err := http.Get(hs.URL + "/v1/sweeps/fig10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("sweep content type %q", ct)
	}
	var events []SweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	count := map[string]int{}
	var table *TableJSON
	var done *SweepEvent
	for i := range events {
		count[events[i].Type]++
		switch events[i].Type {
		case "table":
			table = events[i].Table
		case "done":
			done = &events[i]
		}
	}
	if count["start"] != 1 || count["done"] != 1 || count["error"] != 0 {
		t.Fatalf("event counts %v, want one start, one done, no error", count)
	}
	if count["progress"] == 0 {
		t.Fatal("no progress events streamed")
	}
	if table == nil || table.Title == "" || len(table.Rows) == 0 {
		t.Fatalf("table event missing or empty: %+v", table)
	}
	// Fig10 at one layer: 5 LHB points simulate, so the done event must
	// report exactly those executions (nothing warm, nothing double).
	if done.Execs != 5 || done.StoreHits != 0 {
		t.Fatalf("done counters execs=%d storeHits=%d, want 5/0", done.Execs, done.StoreHits)
	}
}

// TestServerProblemResponses pins the typed HTTP error paths.
func TestServerProblemResponses(t *testing.T) {
	_, hs := newTestServer(t, quickOpts(), nil)

	check := func(name string, gotCode, wantCode int, p Problem) {
		t.Helper()
		if gotCode != wantCode {
			t.Fatalf("%s: status %d, want %d", name, gotCode, wantCode)
		}
		if p.Status != wantCode || p.Title == "" {
			t.Fatalf("%s: problem %+v, want status %d and a title", name, p, wantCode)
		}
	}

	var p Problem
	code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "NoSuchNet", Layer: "C1"}, &p)
	check("unknown layer", code, http.StatusBadRequest, p)

	p = Problem{}
	resp, err := http.Post(hs.URL+"/v1/runs", "application/json", strings.NewReader(`{"netwrk":"typo"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check("unknown field", resp.StatusCode, http.StatusBadRequest, p)

	p = Problem{}
	code = getJSON(t, hs.URL+"/v1/runs/r999999", &p)
	check("unknown job", code, http.StatusNotFound, p)

	p = Problem{}
	code = getJSON(t, hs.URL+"/v1/sweeps/fig99", &p)
	check("unknown sweep", code, http.StatusNotFound, p)
	if !strings.Contains(p.Detail, "fig9") {
		t.Fatalf("unknown-sweep problem should list known ids, got %q", p.Detail)
	}
}

// TestServerHealthAndStats pins the ops endpoints: healthz answers, and
// statsz counters move with the traffic.
func TestServerHealthAndStats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, quickOpts(), st)

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if got := pollJob(t, hs.URL, js.ID, 30*time.Second); got.Status != jobDone {
		t.Fatalf("job finished %q", got.Status)
	}

	var sz StatsZ
	if code := getJSON(t, hs.URL+"/statsz", &sz); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if sz.JobsTotal != 1 || sz.JobsDone != 1 || sz.Execs != 1 {
		t.Fatalf("statsz after one job: %+v", sz)
	}
	if sz.Store == nil || sz.Store.Puts != 1 {
		t.Fatalf("statsz store counters: %+v", sz.Store)
	}

	// The sweep listing names the registry.
	var sweeps struct {
		Sweeps []string `json:"sweeps"`
	}
	if code := getJSON(t, hs.URL+"/v1/sweeps", &sweeps); code != http.StatusOK {
		t.Fatalf("sweep list: status %d", code)
	}
	if len(sweeps.Sweeps) == 0 || sweeps.Sweeps[0] != "table1" {
		t.Fatalf("sweep list %v", sweeps.Sweeps)
	}
}

// TestServerGracefulContext pins daemon-lifetime cancellation: cancelling
// the base context fails in-flight jobs with the typed cancelled error
// (what SIGTERM does through cmd/duploserved).
func TestServerGracefulContext(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := quickOpts()
	opts.MaxCTAs = 0 // long-running
	opts.Context = ctx
	_, hs := newTestServer(t, opts, nil)

	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "YOLO", Layer: "C1"}, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	cancel()
	js = pollJob(t, hs.URL, js.ID, 30*time.Second)
	if js.Status != jobFailed || js.Error == nil || js.Error.Phase != sim.PhaseCancelled {
		t.Fatalf("after daemon cancel: %+v", js)
	}
}
