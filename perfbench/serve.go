package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/report"
	"duplo/internal/server"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// The serve-warm traffic: closed-loop clients, each sending its next
// request when the previous one has finished. One request in sweepEvery
// is a whole-figure sweep (fig9 or fig10, streamed to its done event); the
// rest submit one grid cell and poll it again at once, with no pause,
// until it is done. No recorded client traffic exists to copy, so this
// mix is an assumption (see README.md).
const (
	serveClients = 2
	sweepEvery   = 10
	pollTimeout  = 10 * time.Second
)

// daemon is an in-process duploserved with the binary's default
// production settings, served over a local socket.
type daemon struct {
	srv     *server.Server
	ts      *httptest.Server
	cancel  context.CancelFunc
	journal *server.Journal
}

func startDaemon(layers []workload.Layer, st *store.Store, dir string, rec *recorder) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jl, err := server.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := benchOptions(layers, 0)
	opts.Context = ctx
	opts.CrashDumpDir = filepath.Join(dir, "crash")
	srv := server.New(server.Config{
		Options: opts, Store: st,
		MaxInflight: 16, QueueCap: 64, MaxSweeps: 4, JobTTL: time.Hour, MaxBodyBytes: 1 << 20,
		Journal: jl,
	})
	h := srv.Handler()
	if rec != nil {
		h = spanHandler(h, rec)
	}
	return &daemon{srv: srv, ts: httptest.NewServer(h), cancel: cancel, journal: jl}, nil
}

// spanHeader carries a traced client call's lane, span id and request id.
const spanHeader = "X-Perfbench-Span"

// spanHandler records a server.handle span around each request the
// daemon's handler serves, as the child of the client span named in
// spanHeader.
func spanHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lane, parent, req := 0, -1, int64(0)
		fmt.Sscan(r.Header.Get(spanHeader), &lane, &parent, &req) //nolint:errcheck // untagged requests stay roots
		sp := rec.begin("server.handle", lane, parent, req)
		next.ServeHTTP(w, r)
		rec.end(sp)
	})
}

func (d *daemon) close() error {
	d.ts.Close()
	d.cancel()
	return d.journal.Close()
}

// expected is what the daemon must answer: every cell's stored Stats and
// the two tables of the regeneration that filled the store.
type expected struct {
	cells  []cell
	bodies [][]byte // POST /v1/runs body per cell
	stats  []sim.Stats
	tables map[string]*report.Table
}

// client is one closed-loop client; it owns its samples and check
// accounting, merged after the window.
type client struct {
	lane    int
	base    string
	hc      *http.Client
	rng     *rand.Rand
	want    *expected
	rec     *recorder
	res     *result
	nextReq int64
	sweepAt int // index of the sweep in the current block of requests
	runs    []time.Duration
	sweeps  []time.Duration
	polls   int // polls of the finished runs
}

func (c *client) reqID() int64 {
	c.nextReq++
	return int64(c.lane)<<32 | c.nextReq
}

// call performs one HTTP request inside an http.<name> span and returns
// the status and body. In a traced window the span's identity rides in
// spanHeader, so the daemon-side span (spanHandler) becomes its child.
func (c *client) call(name string, parent int, req int64, method, path string, body []byte) (int, []byte, error) {
	sp := c.rec.begin("http."+name, c.lane, parent, req)
	defer c.rec.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if c.rec != nil {
		hr.Header.Set(spanHeader, fmt.Sprintf("%d %d %d", c.lane, sp, req))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run submits one cell and polls it until done; the latency runs from the
// submit to the poll that saw it done.
func (c *client) run(i int) {
	req := c.reqID()
	root := c.rec.begin("client.run", c.lane, -1, req)
	defer c.rec.end(root)
	t0 := time.Now()
	status, body, err := c.call("submit", root, req, "POST", "/v1/runs", c.want.bodies[i])
	var js server.JobStatus
	if err == nil && status == http.StatusAccepted {
		err = json.Unmarshal(body, &js)
	}
	if err != nil || status != http.StatusAccepted {
		c.res.check(false, "submit %s: status %d: %v", c.want.cells[i], status, err)
		return
	}
	polls := 0
	for ; js.Status != "done"; polls++ {
		if js.Status != "queued" && js.Status != "running" {
			c.res.check(false, "job %s (%s) ended %q", js.ID, c.want.cells[i], js.Status)
			return
		}
		if time.Since(t0) > pollTimeout {
			c.res.check(false, "job %s (%s) not done after %v", js.ID, c.want.cells[i], pollTimeout)
			return
		}
		status, body, err = c.call("poll", root, req, "GET", "/v1/runs/"+js.ID, nil)
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &js)
		}
		if err != nil || status != http.StatusOK {
			c.res.check(false, "poll %s: status %d: %v", js.ID, status, err)
			return
		}
	}
	c.runs = append(c.runs, time.Since(t0))
	c.polls += polls
	c.res.check(js.Result != nil && reflect.DeepEqual(js.Result.Stats, c.want.stats[i]),
		"job %s (%s) Stats differ from the stored record", js.ID, c.want.cells[i])
}

// sweep streams one figure to its done event; the table must equal the
// regeneration's and the sweep must simulate nothing.
func (c *client) sweep(id string) {
	req := c.reqID()
	root := c.rec.begin("client.sweep", c.lane, -1, req)
	defer c.rec.end(root)
	t0 := time.Now()
	ok := false
	var why string
	status, body, err := c.call("sweep", root, req, "GET", "/v1/sweeps/"+id, nil)
	if err != nil || status != http.StatusOK {
		why = fmt.Sprintf("status %d: %v", status, err)
	} else {
		ok, why = c.checkSweep(id, body)
	}
	if ok {
		c.sweeps = append(c.sweeps, time.Since(t0))
	}
	c.res.check(ok, "sweep %s: %s", id, why)
}

func (c *client) checkSweep(id string, body []byte) (bool, string) {
	want := c.want.tables[id]
	tableOK := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var ev server.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return false, err.Error()
		}
		switch ev.Type {
		case "table":
			t := ev.Table
			tableOK = t.Title == want.Title && t.Note == want.Note &&
				reflect.DeepEqual(t.Headers, want.Headers()) && reflect.DeepEqual(t.Rows, want.Rows())
		case "error":
			return false, fmt.Sprintf("error event: %+v", ev.Problem)
		case "done":
			if ev.Execs != 0 {
				return false, fmt.Sprintf("simulated %d cells", ev.Execs)
			}
			if !tableOK {
				return false, "table differs from the regeneration"
			}
			return true, ""
		}
	}
	return false, "stream ended without a done event"
}

// window is one measured closed-loop period against one daemon.
type window struct {
	runs, sweeps []time.Duration
	polls        int
	elapsed      time.Duration
	jobsInMap    int
}

func (w *window) requests() int { return len(w.runs) + len(w.sweeps) }

func (w *window) reqPerS() float64 { return float64(w.requests()) / w.elapsed.Seconds() }

func (w *window) sweepP50() float64 { return median(durations(w.sweeps, time.Second)) }

// latencyMs returns the nearest-rank run and sweep latency percentiles in
// milliseconds, named as the reports name them.
func (w *window) latencyMs() map[string]float64 {
	runs := sortedCopy(durations(w.runs, time.Millisecond))
	sweeps := sortedCopy(durations(w.sweeps, time.Millisecond))
	return map[string]float64{
		"run_p50_ms": percentile(runs, 0.50), "run_p99_ms": percentile(runs, 0.99),
		"sweep_p50_ms": percentile(sweeps, 0.50), "sweep_p99_ms": percentile(sweeps, 0.99),
	}
}

// serveWindow drives the daemon with the closed-loop clients for the
// run's duration, then checks /statsz: nothing simulated, nothing shed.
func serveWindow(e *env, d *daemon, want *expected, rec *recorder) (*window, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Minute} // bounds a hung daemon
	clients := make([]*client, serveClients)
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{lane: i + 1, base: d.ts.URL, hc: hc, want: want, rec: rec, res: newResult(),
			rng: rand.New(rand.NewSource(e.seed*1000 + int64(i)))}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The seed orders the mix and picks the cells; its make-up is
			// fixed: one sweep in every block of sweepEvery requests, the
			// sweeps alternating fig9 and fig10.
			sweeps := []string{"fig9", "fig10"}
			for n := 0; time.Now().Before(deadline); n++ {
				if n%sweepEvery == 0 {
					c.sweepAt = n + c.rng.Intn(sweepEvery)
				}
				if n == c.sweepAt {
					c.sweep(sweeps[(n/sweepEvery+c.lane)%2])
				} else {
					c.run(c.rng.Intn(len(want.cells)))
				}
			}
		}()
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	for _, c := range clients {
		w.runs = append(w.runs, c.runs...)
		w.sweeps = append(w.sweeps, c.sweeps...)
		w.polls += c.polls
		e.res.attempted += c.res.attempted
		e.res.failed += c.res.failed
		e.res.problems = append(e.res.problems, c.res.problems...)
	}

	resp, err := hc.Get(d.ts.URL + "/statsz")
	if err != nil {
		return nil, err
	}
	var st server.StatsZ
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	if st.Execs != 0 || st.SweepExecs != 0 || st.JobsShed != 0 || st.SweepsShed != 0 {
		e.res.problem("statsz: execs=%d sweep_execs=%d jobs_shed=%d sweeps_shed=%d, want all 0",
			st.Execs, st.SweepExecs, st.JobsShed, st.SweepsShed)
	}
	w.jobsInMap = st.JobsTotal
	return w, nil
}

// runServeWarm is the serve-warm workload. Set-up fills the store with the
// regen-cold grid and starts the daemon; the measured phase is one
// closed-loop window of the run's duration.
func runServeWarm(e *env) error {
	t0 := time.Now()
	fillDir, err := os.MkdirTemp(e.dir, "fill-")
	if err != nil {
		return err
	}
	cells := gridCells(e.layers)
	fill, err := regenPass(e.layers, fillDir, nil, -1)
	if err != nil {
		return err
	}
	checkRegen(e.res, fill, cells, e.ref.RegenCold)
	want := &expected{cells: cells, tables: map[string]*report.Table{"fig9": fill.fig9, "fig10": fill.fig10}}
	for i, c := range cells {
		b, err := json.Marshal(c.runRequest())
		if err != nil {
			return err
		}
		want.bodies = append(want.bodies, b)
		want.stats = append(want.stats, fill.results[i].Stats)
	}
	st, err := store.Open(fill.storeDir)
	if err != nil {
		return err
	}
	st.EnableResilience(store.ResilienceConfig{FailureThreshold: 5, OpenFor: 5 * time.Second, Retries: 2})
	d, err := startDaemon(e.layers, st, filepath.Join(e.dir, "daemon-a"), nil)
	if err != nil {
		return err
	}
	e.res.add("setup_s", time.Since(t0).Seconds())
	e.endSetup()

	w, err := serveWindow(e, d, want, nil)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for k, v := range w.latencyMs() {
		e.res.extra[k] = v
	}
	e.res.extra["runs"] = float64(len(w.runs))
	e.res.extra["polls_per_run"] = float64(w.polls) / float64(max(len(w.runs), 1))
	e.res.extra["sweeps"] = float64(len(w.sweeps))
	e.res.extra["jobs_in_map"] = float64(w.jobsInMap)
	if !e.traced {
		e.res.add("wall_s", w.sweepP50())
		e.res.add("work_per_s", w.reqPerS())
		return nil
	}

	// Traced: the window above is the overhead baseline; a fresh daemon
	// (empty job map) over the same store takes the traced window, then
	// the handler, store and runner probes run against it.
	d, err = startDaemon(e.layers, st, filepath.Join(e.dir, "daemon-b"), e.rec)
	if err != nil {
		return err
	}
	defer d.close()
	mark := len(e.rec.spans)
	tw, err := serveWindow(e, d, want, e.rec)
	if err != nil {
		return err
	}
	addOverhead(e.res, w.sweepP50(), tw.sweepP50(), w.reqPerS(), tw.reqPerS())
	for k, v := range tw.latencyMs() {
		e.res.add("client."+k, v)
	}
	e.res.add("server.jobs_in_map", float64(tw.jobsInMap))
	// Transport share: the part of the client-observed HTTP call time that
	// the daemon's handler did not spend, over the traced window.
	var inHandler, observed time.Duration
	for _, s := range e.rec.spans[mark:] {
		switch layerOf(s.name) {
		case "server":
			inHandler += s.end - s.start
		case "http":
			observed += s.end - s.start
		}
	}
	if observed > 0 {
		e.res.add("server.transport_share", 1-float64(inHandler)/float64(observed))
	}
	if err := probeHandler(e, d, want); err != nil {
		return err
	}
	if err := probeGets(e, st, fill.storeDir); err != nil {
		return err
	}
	return probeDispatch(e, st, want)
}

// probeHandler calls the daemon's handler directly (ServeHTTP on a
// recorder, no socket) and reports each endpoint's median.
func probeHandler(e *env, d *daemon, want *expected) error {
	h := d.srv.Handler()
	root := e.rec.begin("bench.handler_probe", 0, -1, 0)
	defer e.rec.end(root)
	serve := func(name, method, target string, body []byte, wantStatus int) (time.Duration, []byte) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, target, rd)
		w := httptest.NewRecorder()
		sp := e.rec.begin("server."+name, 0, root, 0)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		dur := time.Since(t0)
		e.rec.end(sp)
		e.res.check(w.Code == wantStatus, "%s %s: status %d, want %d", method, target, w.Code, wantStatus)
		return dur, w.Body.Bytes()
	}
	var submit, poll, statsz, sweep []time.Duration
	var ids []string
	for i := 0; i < 200; i++ {
		dur, body := serve("submit", "POST", "/v1/runs", want.bodies[i%len(want.bodies)], http.StatusAccepted)
		submit = append(submit, dur)
		var js server.JobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			return err
		}
		ids = append(ids, js.ID)
	}
	for _, id := range ids {
		dur, _ := serve("poll", "GET", "/v1/runs/"+id, nil, http.StatusOK)
		poll = append(poll, dur)
	}
	for i := 0; i < 50; i++ {
		dur, _ := serve("statsz", "GET", "/statsz", nil, http.StatusOK)
		statsz = append(statsz, dur)
	}
	for i := 0; i < 20; i++ {
		dur, _ := serve("sweep", "GET", "/v1/sweeps/"+[]string{"fig9", "fig10"}[i%2], nil, http.StatusOK)
		sweep = append(sweep, dur)
	}
	e.res.add("server.submit_us", median(durations(submit, time.Microsecond)))
	e.res.add("server.poll_us", median(durations(poll, time.Microsecond)))
	e.res.add("server.statsz_us", median(durations(statsz, time.Microsecond)))
	e.res.add("server.sweep_ms", median(durations(sweep, time.Millisecond)))
	return nil
}

// probeGets times store.Get over every stored record, twenty rounds.
func probeGets(e *env, st *store.Store, dir string) error {
	keys, err := storeKeys(dir)
	if err != nil {
		return err
	}
	root := e.rec.begin("bench.get_probe", 0, -1, 0)
	defer e.rec.end(root)
	var lat []float64
	for round := 0; round < 20; round++ {
		for i, k := range keys {
			sp := e.rec.begin("store.get", 0, root, int64(i+1))
			t0 := time.Now()
			_, ok := st.Get(k)
			lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
			e.rec.end(sp)
			e.res.check(ok, "store get %q missed", k)
		}
	}
	s := sortedCopy(lat)
	e.res.add("store.get_us.p50", percentile(s, 0.50))
	e.res.add("store.get_us.p99", percentile(s, 0.99))
	return nil
}

// probeDispatch times Runner.RunCtx for every grid cell on fresh runners
// over the warm store: each call is a memo miss served by the store.
func probeDispatch(e *env, st *store.Store, want *expected) error {
	opts := benchOptions(e.layers, 1)
	opts.Store = st
	root := e.rec.begin("bench.dispatch_probe", 0, -1, 0)
	defer e.rec.end(root)
	var lat []float64
	for round := 0; round < 10; round++ {
		r := experiments.NewRunner(opts)
		for i, c := range want.cells {
			k, cfg, err := c.kernelConfig(opts)
			if err != nil {
				return err
			}
			sp := e.rec.begin("runner.dispatch", 0, root, int64(i+1))
			t0 := time.Now()
			res, err := r.RunCtx(context.Background(), k, cfg)
			lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
			e.rec.end(sp)
			e.res.check(err == nil && reflect.DeepEqual(res.Stats, want.stats[i]),
				"dispatch %s: %v or Stats differ", c, err)
		}
		if cs := r.CacheStats(); cs.Execs != 0 || cs.StoreHits != int64(len(want.cells)) {
			e.res.problem("dispatch round: %d simulations and %d store hits, want 0 and %d",
				cs.Execs, cs.StoreHits, len(want.cells))
		}
	}
	e.res.add("runner.dispatch_us", median(lat))
	return nil
}
