package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"duplo/internal/fault"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// streamSweep reads GET /v1/sweeps/{id} to its end and returns the table
// and done events.
func streamSweep(t *testing.T, base, id string) (*TableJSON, SweepEvent) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep %s: status %d", id, resp.StatusCode)
	}
	var table *TableJSON
	var done *SweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "table":
			table = ev.Table
		case "error":
			t.Fatalf("sweep %s: error event %+v", id, ev.Problem)
		case "done":
			done = &ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if table == nil || done == nil {
		t.Fatalf("sweep %s: table %v, done %v; want both", id, table != nil, done != nil)
	}
	return table, *done
}

// TestServerRepeatSweepFromMemory pins the warm path: sweeps run on
// sessions of the daemon's runner, so a repeated sweep is served from the
// daemon's memo — zero store reads, zero simulations, and a done event
// that reports mem_hits alone — and a job for one of its cells is a memo
// hit on the job runner that leaves /statsz store_hits alone.
func TestServerRepeatSweepFromMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	l, err := workload.Find("ResNet", "C2")
	if err != nil {
		t.Fatal(err)
	}
	opts.Layers = []workload.Layer{l}
	s, hs := newTestServer(t, opts, st)

	cold, first := streamSweep(t, hs.URL, "fig9")
	if first.Execs == 0 {
		t.Fatalf("first fig9 done event %+v, want executions", first)
	}
	lookups := st.Counters()
	warm, second := streamSweep(t, hs.URL, "fig9")
	if c := st.Counters(); c.Hits != lookups.Hits || c.Misses != lookups.Misses {
		t.Fatalf("repeat sweep read the store (hits %d→%d, misses %d→%d), want 0 reads",
			lookups.Hits, c.Hits, lookups.Misses, c.Misses)
	}
	if second.Execs != 0 || second.StoreHits != 0 || second.MemHits == 0 {
		t.Fatalf("repeat fig9 done event %+v, want mem_hits only", second)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("repeat sweep table differs:\n got %+v\nwant %+v", warm, cold)
	}

	var before StatsZ
	getJSON(t, hs.URL+"/statsz", &before)
	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &js); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if js = pollJob(t, hs.URL, js.ID, 30*time.Second); js.Status != jobDone {
		t.Fatalf("job finished %q, want done", js.Status)
	}
	var after StatsZ
	getJSON(t, hs.URL+"/statsz", &after)
	if after.Execs != 0 || after.StoreHits != before.StoreHits {
		t.Fatalf("job after the sweeps: statsz execs=%d store_hits=%d→%d, want 0 and unchanged",
			after.Execs, before.StoreHits, after.StoreHits)
	}
	if cs := s.runner.CacheStats(); cs.MemHits != 1 {
		t.Fatalf("job runner counters %+v, want the job's one memo hit", cs)
	}
}

// TestServerCancelSparesCoalescedJob: two jobs for one cell coalesce onto
// one simulation; cancelling the job that executes it fails that job
// only. The other, which nobody cancelled, reruns the cell and ends done.
func TestServerCancelSparesCoalescedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Only the first execution stalls, until the cancellation ends it, so
	// the second job joins it however slow the host; the rerun does not.
	in, err := fault.Parse("sim-delay:nth=1,delay=60s", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.Faults = in
	s, hs := chaosServer(t, Config{Options: opts})
	rq := RunRequest{Network: "ResNet", Layer: "C2", Duplo: true}

	// waitFor polls one of the runner's counters: the first job must be
	// executing (in its injected delay) before the second is submitted,
	// and the second waiting on it before the first is cancelled.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var first, second JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", rq, &first); code != http.StatusAccepted {
		t.Fatalf("submit first: status %d", code)
	}
	waitFor("the first job to execute", func() bool { return s.runner.Execs() == 1 })
	if code := postJSON(t, hs.URL+"/v1/runs", rq, &second); code != http.StatusAccepted {
		t.Fatalf("submit second: status %d", code)
	}
	waitFor("the second job to join", func() bool { return s.runner.CacheStats().MemHits == 1 })

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if js := pollJob(t, hs.URL, first.ID, 30*time.Second); js.Status != jobFailed || js.Error == nil || js.Error.Phase != sim.PhaseCancelled {
		t.Fatalf("cancelled job: %+v, want failed with phase %q", js, sim.PhaseCancelled)
	}
	if js := pollJob(t, hs.URL, second.ID, 30*time.Second); js.Status != jobDone {
		t.Fatalf("coalesced job nobody cancelled ended %q (error %+v), want done", js.Status, js.Error)
	}
	if n := s.runner.Execs(); n != 2 {
		t.Fatalf("runner executed %d simulations, want 2 (the cancelled one and the rerun)", n)
	}
}
