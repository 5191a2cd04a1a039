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
// jobs for one warm cell, submitted through the handler and finished,
// may add at most 320 B of live heap each (the record, its table slot and
// its eviction-queue entry). Jobs go in batches of 100, so the runtime's
// pool of exited goroutines, which a burst would grow, is already full
// when the baseline is taken.
func TestServerFinishedJobFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := New(Config{Options: quickOpts(), JobTTL: time.Hour})
	h := s.Handler()
	body, err := json.Marshal(RunRequest{Network: "ResNet", Layer: "C2", Duplo: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	batch := func() {
		t.Helper()
		for i := 0; i < 100; i++ {
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
	// Two collections each time: the first only moves the runner's pooled
	// simulator state to the pool's victim cache, the second frees it.
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
	perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d B of live heap per finished job (%d objects per job)", perJob,
		(int64(after.HeapObjects)-int64(before.HeapObjects))/n)
	if perJob > 320 {
		t.Errorf("%d B of live heap per finished job, want <= 320", perJob)
	}
}
