package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"duplo/internal/fault"
)

// TestServerEvictionOrder drives the finish-ordered eviction queue with
// the Now seam: jobs finished at different virtual times each expire
// exactly JobTTL after their own finish; a job held running past its
// submit time + JobTTL stays until JobTTL after it finishes; and /statsz
// agrees with the evictions at every step.
func TestServerEvictionOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	in, err := fault.Parse("sim-delay:every=1,delay=60s,match=GAN", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.Faults = in
	ck := &mutexClock{at: time.Unix(1_700_000_000, 0)}
	_, hs := chaosServer(t, Config{Options: opts, JobTTL: time.Hour, Now: ck.now})

	// t0: the held job enters its injected delay and stays running.
	var held JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "GAN", Layer: "TC4", Duplo: true}, &held); code != http.StatusAccepted {
		t.Fatalf("submit held job: status %d", code)
	}
	// Three jobs finish at t0, t0+10m and t0+20m.
	var done []string
	for i := 0; i < 3; i++ {
		var js JobStatus
		if code := postJSON(t, hs.URL+"/v1/runs", RunRequest{Network: "ResNet", Layer: "C2"}, &js); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if js = pollJob(t, hs.URL, js.ID, 30*time.Second); js.Status != jobDone {
			t.Fatalf("job %s finished %q, want done", js.ID, js.Status)
		}
		done = append(done, js.ID)
		ck.advance(10 * time.Minute)
	}

	// expect checks one virtual instant: the ids in live answer 200 with
	// their status, every other id 410, and /statsz counts agree.
	evicted := 0
	expect := func(step string, live map[string]string) {
		t.Helper()
		for _, id := range append([]string{held.ID}, done...) {
			resp, err := http.Get(hs.URL + "/v1/runs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var js JobStatus
			if resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(&js)
			}
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: decode %s: %v", step, id, err)
			}
			want, ok := live[id]
			switch {
			case ok && (resp.StatusCode != http.StatusOK || js.Status != want):
				t.Errorf("%s: %s answered %d %q, want 200 %q", step, id, resp.StatusCode, js.Status, want)
			case !ok && resp.StatusCode != http.StatusGone:
				t.Errorf("%s: %s answered %d, want 410", step, id, resp.StatusCode)
			}
		}
		evicted = 1 + len(done) - len(live)
		var st StatsZ
		getJSON(t, hs.URL+"/statsz", &st)
		wantDone, wantRunning := 0, 0
		for _, status := range live {
			switch status {
			case jobDone:
				wantDone++
			case jobRunning:
				wantRunning++
			}
		}
		if st.JobsTotal != len(live) || st.JobsDone != wantDone || st.JobsRunning != wantRunning ||
			st.JobsEvicted != int64(evicted) {
			t.Errorf("%s: statsz total=%d done=%d running=%d evicted=%d, want %d/%d/%d/%d", step,
				st.JobsTotal, st.JobsDone, st.JobsRunning, st.JobsEvicted,
				len(live), wantDone, wantRunning, evicted)
		}
	}

	ck.advance(35 * time.Minute) // t0+65m: past the first finish + TTL and the held job's submit + TTL
	expect("t0+65m", map[string]string{held.ID: jobRunning, done[1]: jobDone, done[2]: jobDone})

	// The held job finishes (cancelled, so failed) at t0+65m.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+held.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if js := pollJob(t, hs.URL, held.ID, 10*time.Second); js.Status != jobFailed {
		t.Fatalf("cancelled held job finished %q, want failed", js.Status)
	}

	ck.advance(10 * time.Minute) // t0+75m
	expect("t0+75m", map[string]string{held.ID: jobFailed, done[2]: jobDone})
	ck.advance(10 * time.Minute) // t0+85m
	expect("t0+85m", map[string]string{held.ID: jobFailed})
	ck.advance(35 * time.Minute) // t0+120m: 55m after the held job finished
	expect("t0+120m", map[string]string{held.ID: jobFailed})
	ck.advance(10 * time.Minute) // t0+130m
	expect("t0+130m", map[string]string{})
}

// TestServerFinishedJobFootprint bounds what a retained job costs: 5,000
// jobs, submitted through the handler and finished, may add at most
// 144 B of live heap each (the record, its map slot and its
// eviction-queue entry). It measures twice: once with one request
// repeated, and once with every request distinct (baseline jobs that set
// lhb_entries, which only Duplo jobs use, so all are still served from
// one memoized cell). Jobs go in batches of 100, so the runtime's pool of
// exited goroutines, which a burst would grow, is already full when the
// baseline is taken.
func TestServerFinishedJobFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, tc := range []struct {
		name string
		req  func(i int) RunRequest
	}{
		{"repeated", func(int) RunRequest { return RunRequest{Network: "ResNet", Layer: "C2", Duplo: true} }},
		{"distinct", func(i int) RunRequest { return RunRequest{Network: "ResNet", Layer: "C2", LHBEntries: i + 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perJob := finishedJobFootprint(t, tc.req)
			if perJob > 144 {
				t.Errorf("%d B of live heap per finished job, want <= 144", perJob)
			}
		})
	}
}

// finishedJobFootprint returns the live heap each of 5,000 finished jobs
// adds, the i-th job submitting req(i).
func finishedJobFootprint(t *testing.T, req func(i int) RunRequest) int64 {
	t.Helper()
	s := New(Config{Options: quickOpts(), JobTTL: time.Hour})
	h := s.Handler()
	jobs := 0
	batch := func() {
		t.Helper()
		for i := 0; i < 100; i++ {
			body, err := json.Marshal(req(jobs + i))
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
			}
		}
		jobs += 100
		until := time.Now().Add(30 * time.Second)
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
			var st StatsZ
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.JobsFailed > 0 {
				t.Fatalf("%d jobs failed", st.JobsFailed)
			}
			if st.JobsDone == jobs {
				return
			}
			if time.Now().After(until) {
				t.Fatalf("%d of %d jobs done after 30s", st.JobsDone, jobs)
			}
			time.Sleep(time.Millisecond)
		}
	}
	batch() // the first job simulates the cell; the rest share its result

	const n = 5000
	// Two collections each time: the first only moves what sync.Pools hold
	// (encoding/json's encoder states) to their victim caches, the second
	// frees it.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for jobs < 100+n {
		batch()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if execs := s.runner.Execs(); execs != 1 {
		t.Fatalf("%d simulations, want 1: the jobs must share one cell", execs)
	}
	perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d B of live heap per finished job (%d objects per job)", perJob,
		(int64(after.HeapObjects)-int64(before.HeapObjects))/n)
	return perJob
}

// tableCounts counts the table's jobs by state with a walk: the reference
// that /statsz's per-state counters must equal.
func tableCounts(s *Server) (counts [numJobStates]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		counts[j.state]++
	}
	return counts
}

// TestServerStatszCountsMatchTable: /statsz reads per-state counters kept
// in step with every transition instead of walking the table; on a mixed
// population — one queued, one running, one failed, plus done and evicted
// jobs — they must equal a walk of the table.
func TestServerStatszCountsMatchTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	in, err := fault.Parse("sim-delay:every=1,delay=60s,match=GAN", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.Faults = in
	ck := &mutexClock{at: time.Unix(1_700_000_000, 0)}
	s, hs := chaosServer(t, Config{Options: opts, MaxInflight: 1, QueueCap: 4, JobTTL: time.Hour, Now: ck.now})
	submit := func(rq RunRequest) JobStatus {
		t.Helper()
		var js JobStatus
		if code := postJSON(t, hs.URL+"/v1/runs", rq, &js); code != http.StatusAccepted {
			t.Fatalf("submit %+v: status %d", rq, code)
		}
		return js
	}
	cancel := func(id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	c2 := RunRequest{Network: "ResNet", Layer: "C2"}

	// One job finishes and is evicted an hour later; another finishes then.
	if js := pollJob(t, hs.URL, submit(c2).ID, 30*time.Second); js.Status != jobDone {
		t.Fatalf("job finished %q, want done", js.Status)
	}
	ck.advance(2 * time.Hour)
	if js := pollJob(t, hs.URL, submit(c2).ID, 30*time.Second); js.Status != jobDone {
		t.Fatalf("job finished %q, want done", js.Status)
	}
	// A finished job's goroutine frees its execution slot just after the
	// job reports done; once it has, the held job claims the slot at
	// submit. The next two queue behind it, and the first of those is
	// cancelled while queued.
	for deadline := time.Now().Add(10 * time.Second); len(s.inflight) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("execution slot still taken after the jobs finished")
		}
	}
	held := submit(RunRequest{Network: "GAN", Layer: "TC4", Duplo: true})
	failed := submit(c2)
	queued := submit(RunRequest{Network: "ResNet", Layer: "C3"})
	if held.Status != jobRunning || failed.Status != jobQueued || queued.Status != jobQueued {
		t.Fatalf("jobs are %q, %q and %q, want running, queued, queued", held.Status, failed.Status, queued.Status)
	}
	cancel(failed.ID)
	if js := pollJob(t, hs.URL, failed.ID, 10*time.Second); js.Status != jobFailed {
		t.Fatalf("job cancelled while queued ended %q, want failed", js.Status)
	}

	var st StatsZ
	getJSON(t, hs.URL+"/statsz", &st)
	walk := tableCounts(s)
	got := [numJobStates]int{st.JobsQueued, st.JobsRunning, st.JobsDone, st.JobsFailed}
	if got != walk {
		t.Errorf("statsz queued/running/done/failed = %v, a walk of the table counts %v", got, walk)
	}
	if want := [numJobStates]int{1, 1, 1, 1}; walk != want {
		t.Errorf("table holds %v queued/running/done/failed, want %v", walk, want)
	}
	if st.JobsTotal != 4 || st.JobsEvicted != 1 {
		t.Errorf("statsz total=%d evicted=%d, want 4/1", st.JobsTotal, st.JobsEvicted)
	}

	// The queued job goes first, so it never gets the held job's slot.
	cancel(queued.ID)
	cancel(held.ID)
	for _, id := range []string{queued.ID, held.ID} {
		if js := pollJob(t, hs.URL, id, 10*time.Second); js.Status != jobFailed {
			t.Fatalf("cancelled job %s ended %q, want failed", id, js.Status)
		}
	}
	getJSON(t, hs.URL+"/statsz", &st)
	if got, walk := [numJobStates]int{st.JobsQueued, st.JobsRunning, st.JobsDone, st.JobsFailed}, tableCounts(s); got != walk {
		t.Errorf("after the cancellations statsz counts %v, a walk of the table counts %v", got, walk)
	}
}

// TestJobRequestRoundTrip: a job keeps its request packed, and unpacks
// exactly what was submitted, for every Table I layer and with every
// field set; through the handler, the 202 and the finished job both echo
// the request.
func TestJobRequestRoundTrip(t *testing.T) {
	for _, l := range catalog {
		for _, rq := range []RunRequest{
			{Network: l.Network, Layer: l.Name},
			{Network: l.Network, Layer: l.Name, Batch: 3, Duplo: true, LHBEntries: 1 << 40, LHBWays: 7,
				LHBOracle: true, MaxCycles: 1<<62 + 1, WallTimeoutMS: 1<<50 + 3},
		} {
			if got := newJob(rq, stateQueued).request(); got != rq {
				t.Errorf("packed %+v, unpacked %+v", rq, got)
			}
		}
	}
	if testing.Short() {
		return
	}

	_, hs := chaosServer(t, Config{Options: quickOpts()})
	rq := RunRequest{Network: "ResNet", Layer: "C2", Duplo: true, LHBEntries: 512, LHBWays: 2,
		MaxCycles: 1 << 40, WallTimeoutMS: 3_600_000}
	var js JobStatus
	if code := postJSON(t, hs.URL+"/v1/runs", rq, &js); code != http.StatusAccepted || js.Request != rq {
		t.Fatalf("submit: status %d, request %+v, want 202 echoing %+v", code, js.Request, rq)
	}
	if js = pollJob(t, hs.URL, js.ID, 30*time.Second); js.Status != jobDone || js.Request != rq {
		t.Fatalf("job %s: %q with request %+v, want done with %+v", js.ID, js.Status, js.Request, rq)
	}
}
