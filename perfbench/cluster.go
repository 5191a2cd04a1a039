package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/predictor"
	"duplo/internal/report"
	"duplo/internal/serving"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// The `duploexp -exp cluster` shape (internal/experiments/cluster.go):
// a 4-chip fleet, batches up to 32, queues of 128, SLO = 10x the baseline
// batch-8 service time, three policies x three loads x Duplo off/on. The
// benchmark stretches the horizon to 100x the sweep's 2,000 arrivals per
// cell so the DES does measurable work. These are copies of the
// experiment's unexported constants; pinClusterShape checks them against
// Runner.Cluster on every run.
const (
	clusterChips          = 4
	clusterQueueCap       = 128
	clusterMaxBatch       = 32
	clusterSLOServiceMult = 10
	clusterSweepArrivals  = 2000
	clusterArrivals       = 100 * clusterSweepArrivals
)

var (
	clusterBatches = []int{1, 8, 16, 32}
	clusterLoads   = []float64{0.5, 0.8, 1.1}
)

// predictedCells is how many cells a predicted study synthesizes: the
// Fig. 9 grid (54) plus both latency tables (9 layers x 4 batches x 2).
const predictedCells = 54 + 9*4*2

// calibrate fits the predictor against the grid's ground truth
// (simulating its 54 cells on a storeless runner) and writes the artifact
// to path. Every family must pass the calibration gate, or predicted
// studies would silently fall back to simulation.
func calibrate(layers []workload.Layer, path string) error {
	opts := benchOptions(layers, runnerWorkers)
	opts.CalibrationPath = path
	cal, err := experiments.NewRunner(opts).Calibrate(true)
	if err != nil {
		return err
	}
	if !cal.GatePass() {
		return fmt.Errorf("calibration gate failed on the benchmark grid")
	}
	return nil
}

// predictedOut is a predict-all Fig. 9 table plus the Duplo-off and
// Duplo-on serving latency tables, from one fresh runner without a store.
type predictedOut struct {
	fig9         *report.Table
	err9, latErr error
	base, dup    *serving.LatencyTable
	cache        experiments.CacheStats
	fig9Dur      time.Duration
}

func predictedTables(layers []workload.Layer, calPath string, rec *recorder, parent int) (*predictedOut, error) {
	opts := benchOptions(layers, runnerWorkers)
	opts.Predictor = experiments.PredictAll
	opts.CalibrationPath = calPath
	r := experiments.NewRunner(opts)
	out := &predictedOut{}

	t0 := time.Now()
	sp := rec.begin("runner.fig9", 0, parent, 0)
	out.fig9, out.err9 = r.Fig9()
	rec.end(sp)
	t1 := time.Now()
	sp = rec.begin("runner.latencies", 0, parent, 0)
	out.base, out.dup, out.latErr = r.ServingLatencies(layers, clusterBatches, opts.Config().ClockMHz)
	rec.end(sp)
	out.fig9Dur = t1.Sub(t0)
	out.cache = r.CacheStats()
	if out.fig9 == nil || out.base == nil || out.dup == nil {
		return nil, fmt.Errorf("predicted study built no tables: %v %v", out.err9, out.latErr)
	}
	return out, nil
}

// digest hashes the predicted Fig. 9 table and both latency tables.
func (p *predictedOut) digest() string {
	h := sha256.New()
	hashTable(h, p.fig9)
	for _, t := range []*serving.LatencyTable{p.base, p.dup} {
		for _, c := range t.Classes() {
			fmt.Fprintf(h, "%s %v\n", c, t.Points(c))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clusterConfigs builds the 18 DES cells (policy x load x Duplo off/on)
// over the two latency tables, each with a horizon of about arrivals
// requests.
func clusterConfigs(base, dup *serving.LatencyTable, seed int64, arrivals float64) ([]serving.Config, error) {
	classes := base.Classes()
	slo := make(map[string]int64)
	var meanPerReq float64 // seconds per request at full batching, class-averaged
	for _, c := range classes {
		s8, err := base.ServiceNanos(c, 8)
		if err != nil {
			return nil, err
		}
		slo[c] = clusterSLOServiceMult * s8
		meanPerReq += float64(s8) / 8 / 1e9
	}
	capacity := float64(clusterChips) / (meanPerReq / float64(len(classes)))
	var cfgs []serving.Config
	for _, policy := range serving.Policies() {
		for _, load := range clusterLoads {
			rate := load * capacity
			for _, table := range []*serving.LatencyTable{base, dup} {
				cs := make([]serving.Class, len(classes))
				for i, c := range classes {
					cs[i] = serving.Class{Name: c, Arrival: serving.Exponential{Rate: rate / float64(len(classes))}, SLONanos: slo[c]}
				}
				cfgs = append(cfgs, serving.Config{
					Chips: clusterChips, Policy: policy, MaxBatch: clusterMaxBatch, QueueCap: clusterQueueCap,
					HorizonNanos: int64(arrivals / rate * 1e9), Seed: seed, Classes: cs, Table: table,
				})
			}
		}
	}
	return cfgs, nil
}

// studyOut is one predicted capacity study.
type studyOut struct {
	pred    *predictedOut
	metrics []*serving.Metrics
	events  int64
	desDur  time.Duration // host time inside serving.Run
	wall    time.Duration
}

// study runs the timed part of cluster-predicted once: a predicted Fig. 9,
// both latency tables, and the 18 DES cells.
func study(e *env, calPath string, rec *recorder) (*studyOut, error) {
	root := rec.begin("bench.study", 0, -1, 0)
	t0 := time.Now()
	p, err := predictedTables(e.layers, calPath, rec, root)
	if err != nil {
		return nil, err
	}
	cfgs, err := clusterConfigs(p.base, p.dup, e.seed, clusterArrivals)
	if err != nil {
		return nil, err
	}
	out := &studyOut{pred: p}
	for i, cfg := range cfgs {
		sp := rec.begin("serving.run", 0, root, int64(i+1))
		d0 := time.Now()
		m, err := serving.Run(cfg)
		out.desDur += time.Since(d0)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("serving cell %d: %w", i, err)
		}
		out.metrics = append(out.metrics, m)
		out.events += m.Events
	}
	out.wall = time.Since(t0)
	rec.end(root)
	return out, nil
}

// checkStudy applies the study's correctness checks: every predicted
// table cell rendered, zero simulations and exactly 126 predicted cells
// (a calibration-gate failure would fall back to simulation), the
// predicted tables equal to the reference, every DES cell conserving
// offered = admitted + rejected, and the DES metrics identical to the
// run's first study (same seed, same tables).
func checkStudy(res *result, s, first *studyOut, want string) {
	p := s.pred
	checkCells(res, p.fig9)
	if p.err9 != nil || p.latErr != nil {
		res.problem("predicted study errors: fig9=%v latencies=%v", p.err9, p.latErr)
	}
	if p.cache.Execs != 0 || p.cache.Predicted != predictedCells {
		res.problem("predicted study simulated %d cells and predicted %d, want 0 and %d",
			p.cache.Execs, p.cache.Predicted, predictedCells)
	}
	if got := p.digest(); got != want {
		res.problem("predicted tables digest %s, reference %s", got, want)
	}
	for i, m := range s.metrics {
		res.check(m.Offered == m.Admitted+m.Rejected && (first == nil || reflect.DeepEqual(m, first.metrics[i])),
			"DES cell %d: offered %d != admitted %d + rejected %d, or metrics differ between studies",
			i, m.Offered, m.Admitted, m.Rejected)
	}
}

// runClusterPredicted is the cluster-predicted workload. Set-up fits the
// calibration (the only simulation) and keeps just the artifact; the
// measured phase repeats predicted studies on fresh storeless runners.
func runClusterPredicted(e *env) error {
	calPath := filepath.Join(e.dir, "calibration.json")
	t0 := time.Now()
	if err := calibrate(e.layers, calPath); err != nil {
		return err
	}
	e.res.add("setup_s", time.Since(t0).Seconds())
	if err := pinClusterShape(e, calPath); err != nil {
		return err
	}
	e.endSetup()

	var first *studyOut
	studies := func(rec *recorder, d time.Duration) ([]*studyOut, error) {
		var outs []*studyOut
		deadline := time.Now().Add(d)
		for len(outs) == 0 || time.Now().Before(deadline) {
			s, err := study(e, calPath, rec)
			if err != nil {
				return nil, err
			}
			checkStudy(e.res, s, first, e.ref.Predicted)
			if first == nil {
				first = s
			}
			outs = append(outs, s)
		}
		return outs, nil
	}
	walls := func(ss []*studyOut) (wall, work []float64) {
		for _, s := range ss {
			wall = append(wall, s.wall.Seconds())
			work = append(work, float64(s.events)/s.wall.Seconds())
		}
		return wall, work
	}

	if !e.traced {
		ss, err := studies(nil, e.seconds)
		if err != nil {
			return err
		}
		wall, work := walls(ss)
		e.res.add("wall_s", wall...)
		e.res.add("work_per_s", work...)
		return nil
	}

	// Traced: half the time untraced (the overhead baseline), half traced,
	// then the predictor probes.
	plain, err := studies(nil, e.seconds/2)
	if err != nil {
		return err
	}
	traced, err := studies(e.rec, e.seconds/2)
	if err != nil {
		return err
	}
	pw, pk := walls(plain)
	tw, tk := walls(traced)
	addOverhead(e.res, median(pw), median(tw), median(pk), median(tk))
	var fig9, runS, evps []float64
	for _, s := range traced {
		fig9 = append(fig9, s.pred.fig9Dur.Seconds())
		runS = append(runS, s.desDur.Seconds())
		evps = append(evps, float64(s.events)/s.desDur.Seconds())
	}
	e.res.add("runner.fig9_s", median(fig9))
	e.res.add("serving.run_s", median(runS))
	e.res.add("serving.events_per_s", median(evps))
	e.res.add("serving.events", float64(traced[0].events))
	addCache(e.res, traced[0].pred.cache)
	return probePredictor(e, calPath)
}

// pinClusterShape ties clusterConfigs to the `-exp cluster` sweep: at the
// sweep's own 2,000 arrivals per cell and seed, the 18 DES cells must
// render exactly the rows Runner.Cluster renders on a predict-all runner
// over the same calibration. If the experiment changes shape, the copy
// above must follow.
func pinClusterShape(e *env, calPath string) error {
	const seed = 1
	opts := benchOptions(e.layers, runnerWorkers)
	opts.Predictor = experiments.PredictAll
	opts.CalibrationPath = calPath
	opts.Seed = seed
	r := experiments.NewRunner(opts)
	want, err := r.Cluster()
	if err != nil {
		return err
	}
	base, dup, err := r.ServingLatencies(e.layers, clusterBatches, opts.Config().ClockMHz)
	if err != nil {
		return err
	}
	cfgs, err := clusterConfigs(base, dup, seed, clusterSweepArrivals)
	if err != nil {
		return err
	}
	rows := want.Rows()
	if len(rows) != len(cfgs) {
		e.res.problem("cluster shape: -exp cluster has %d rows, the benchmark %d cells", len(rows), len(cfgs))
		return nil
	}
	for i, cfg := range cfgs {
		m, err := serving.Run(cfg)
		if err != nil {
			return err
		}
		var offered float64
		for _, c := range cfg.Classes {
			offered += c.Arrival.(serving.Exponential).Rate
		}
		var p50, p95, p99 int64
		for _, c := range m.Classes {
			p50, p95, p99 = max(p50, c.P50Nanos), max(p95, c.P95Nanos), max(p99, c.P99Nanos)
		}
		got := []string{
			fmt.Sprintf("%.3f", serving.Ms(p50)), fmt.Sprintf("%.3f", serving.Ms(p95)), fmt.Sprintf("%.3f", serving.Ms(p99)),
			fmt.Sprintf("%.1f", m.GoodputPerSec), fmt.Sprintf("%.1f", 100*float64(m.Rejected)/float64(m.Offered)),
			fmt.Sprintf("%.1f", m.MeanQueueDepth), fmt.Sprintf("%.2f", m.MeanUtilization),
		}
		row := rows[i]
		lead := i%2 == 1 || (row[0] == cfg.Policy.String() && row[2] == fmt.Sprintf("%.1f", offered))
		if !lead || !reflect.DeepEqual(got, row[4:]) {
			e.res.problem("cluster shape: cell %d renders %v, -exp cluster row %v", i, got, row)
		}
	}
	return nil
}

// probePredictor times predictor.Load of the artifact and
// Calibration.PredictResult over the study's 126 cells.
func probePredictor(e *env, calPath string) error {
	opts := benchOptions(e.layers, runnerWorkers)
	key := experiments.NewRunner(opts).CalibrationKey()
	root := e.rec.begin("bench.predictor_probe", 0, -1, 0)
	defer e.rec.end(root)

	var cal *predictor.Calibration
	var loads []float64
	for i := 0; i < 20; i++ {
		sp := e.rec.begin("predictor.load", 0, root, 0)
		t0 := time.Now()
		c, err := predictor.Load(calPath, key)
		loads = append(loads, float64(time.Since(t0))/float64(time.Millisecond))
		e.rec.end(sp)
		if err != nil {
			return err
		}
		cal = c
	}
	e.res.add("predictor.load_ms", median(loads))

	type kc struct {
		k   *sim.Kernel
		cfg sim.Config
	}
	var work []kc
	for _, c := range gridCells(e.layers) {
		k, cfg, err := c.kernelConfig(opts)
		if err != nil {
			return err
		}
		work = append(work, kc{k, cfg})
	}
	for _, l := range e.layers {
		for _, b := range clusterBatches {
			k, err := experiments.BatchKernel(l, b)
			if err != nil {
				return err
			}
			cfg := opts.Config()
			work = append(work, kc{k, cfg})
			cfg.Duplo = true
			cfg.DetectCfg.LHB = experiments.DefaultLHB
			work = append(work, kc{k, cfg})
		}
	}
	var lat []float64
	for round := 0; round < 10; round++ {
		for i, w := range work {
			sp := e.rec.begin("predictor.predict", 0, root, int64(i+1))
			t0 := time.Now()
			_, ok := cal.PredictResult(w.k, w.cfg)
			lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
			e.rec.end(sp)
			e.res.check(ok, "predictor has no model for %s", w.k.Name)
		}
	}
	e.res.add("predictor.predict_us", median(lat))
	return nil
}
