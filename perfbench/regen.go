package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// runnerWorkers is the pool width of every runner that simulates or
// predicts: the measured regeneration, serve-warm's store fill and
// cluster-predicted's calibration and studies. One worker makes a pass the
// serial sum of its cells; with two, the makespan moved with how the cells
// landed on the pool (see README).
const runnerWorkers = 1

// regenOut is one cold regeneration: both tables, every cell's result in
// grid order, the runner's tier counters and the store's put count.
type regenOut struct {
	fig9, fig10       *report.Table
	err9, err10       error
	results           []sim.Result
	cache             experiments.CacheStats
	puts              int64
	fig9Dur, fig10Dur time.Duration
	cycles            int64 // simulated cycles summed over the grid
	wall              time.Duration
	storeDir          string
}

// regenPass regenerates Fig. 9 then Fig. 10 through one runner with an
// empty store attached at dir. Fig. 10's cells come from the runner's memo
// cache, so the pass simulates the 54 grid cells once and writes each to
// the store.
func regenPass(layers []workload.Layer, dir string, rec *recorder, parent int) (*regenOut, error) {
	out := &regenOut{storeDir: filepath.Join(dir, "store")}
	st, err := store.Open(out.storeDir)
	if err != nil {
		return nil, err
	}
	opts := benchOptions(layers, runnerWorkers)
	opts.Store = st
	opts.CrashDumpDir = filepath.Join(dir, "crash")
	r := experiments.NewRunner(opts)

	t0 := time.Now()
	sp := rec.begin("runner.fig9", 0, parent, 0)
	out.fig9, out.err9 = r.Fig9()
	rec.end(sp)
	t1 := time.Now()
	sp = rec.begin("runner.fig10", 0, parent, 0)
	out.fig10, out.err10 = r.Fig10()
	rec.end(sp)
	t2 := time.Now()
	out.fig9Dur, out.fig10Dur, out.wall = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
	if out.fig9 == nil || out.fig10 == nil {
		return nil, fmt.Errorf("regeneration returned no table: %v %v", out.err9, out.err10)
	}
	out.cache = r.CacheStats()
	out.puts = st.Counters().Puts
	out.results, err = cellResults(r, gridCells(layers))
	if err != nil {
		return nil, err
	}
	for _, res := range out.results {
		out.cycles += res.Cycles
	}
	return out, nil
}

// checkRegen applies the regeneration's correctness checks: every table
// cell rendered (each counts as one operation), both figures error-free,
// exactly 54 simulations and 54 store writes, and the digest of the tables
// plus every cell's Stats equal to the reference.
func checkRegen(res *result, out *regenOut, cells []cell, want string) {
	checkCells(res, out.fig9)
	checkCells(res, out.fig10)
	if out.err9 != nil || out.err10 != nil {
		res.problem("regeneration errors: fig9=%v fig10=%v", out.err9, out.err10)
	}
	if out.cache.Execs != int64(len(cells)) || out.puts != int64(len(cells)) {
		res.problem("regeneration simulated %d cells and stored %d, want %d and %d",
			out.cache.Execs, out.puts, len(cells), len(cells))
	}
	if got := digest([]*report.Table{out.fig9, out.fig10}, cells, out.results); got != want {
		res.problem("regeneration digest %s, reference %s", got, want)
	}
}

// runRegenCold is the regen-cold workload: cold Fig. 9 + Fig. 10
// regenerations, one after another, each into an empty store, until the
// run's time is up (at least one). Its inputs are the fixed grid, so the
// seed only labels the run.
func runRegenCold(e *env) error {
	cells := gridCells(e.layers)

	// Set-up is what a cold regeneration needs before it can start: the
	// layer set, its kernels and an empty store directory. It takes a few
	// hundred microseconds, so it is repeated many times for a steady
	// median.
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		layers, err := benchLayers()
		if err != nil {
			return err
		}
		opts := benchOptions(layers, runnerWorkers)
		for _, c := range gridCells(layers) {
			if _, _, err := c.kernelConfig(opts); err != nil {
				return err
			}
		}
		dir, err := os.MkdirTemp(e.dir, "setup-")
		if err != nil {
			return err
		}
		if _, err := store.Open(filepath.Join(dir, "store")); err != nil {
			return err
		}
		experiments.NewRunner(opts)
		e.res.add("setup_s", time.Since(t0).Seconds())
		os.RemoveAll(dir)
	}
	e.endSetup()

	pass := func(rec *recorder, parent int, keep bool) (*regenOut, error) {
		dir, err := os.MkdirTemp(e.dir, "cold-")
		if err != nil {
			return nil, err
		}
		out, err := regenPass(e.layers, dir, rec, parent)
		if err != nil {
			return nil, err
		}
		checkRegen(e.res, out, cells, e.ref.RegenCold)
		if !keep {
			os.RemoveAll(dir)
		}
		return out, nil
	}

	if !e.traced {
		deadline := time.Now().Add(e.seconds)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			out, err := pass(nil, -1, false)
			if err != nil {
				return err
			}
			e.res.add("wall_s", out.wall.Seconds())
			e.res.add("work_per_s", float64(out.cycles)/out.wall.Seconds())
		}
		return nil
	}

	// Traced: one untraced pass as the overhead baseline, one traced pass,
	// then the layer probes.
	base, err := pass(nil, -1, false)
	if err != nil {
		return err
	}
	root := e.rec.begin("bench.pass", 0, -1, 0)
	out, err := pass(e.rec, root, true)
	e.rec.end(root)
	if err != nil {
		return err
	}
	addOverhead(e.res, base.wall.Seconds(), out.wall.Seconds(),
		float64(base.cycles)/base.wall.Seconds(), float64(out.cycles)/out.wall.Seconds())
	e.res.add("runner.fig9_s", out.fig9Dur.Seconds())
	e.res.add("runner.fig10_s", out.fig10Dur.Seconds())
	addCache(e.res, out.cache)

	if err := replaySim(e, cells, out.results); err != nil {
		return err
	}
	return probePuts(e, out.storeDir)
}

// addOverhead reports the tracing overhead: traced minus untraced, as a
// percentage of untraced, for wall_s and work_per_s.
func addOverhead(res *result, wallUntraced, wallTraced, workUntraced, workTraced float64) {
	res.add("trace.overhead.wall_pct", 100*(wallTraced-wallUntraced)/wallUntraced)
	res.add("trace.overhead.work_pct", 100*(workTraced-workUntraced)/workUntraced)
}

// addCache reports a runner's tier counters.
func addCache(res *result, c experiments.CacheStats) {
	res.add("runner.execs", float64(c.Execs))
	res.add("runner.mem_hits", float64(c.MemHits))
	res.add("runner.store_hits", float64(c.StoreHits))
	res.add("runner.predicted", float64(c.Predicted))
}

// replaySim replays the grid serially through sim.RunPooledContext (one
// reused arena, as the runner's workers do), timing baseline and Duplo
// runs apart. Each replay must reproduce the regeneration's Stats.
func replaySim(e *env, cells []cell, want []sim.Result) error {
	opts := benchOptions(e.layers, 1)
	ar := sim.NewArena()
	var host [2]time.Duration
	var cycles [2]int64
	var lookups, hits uint64
	root := e.rec.begin("bench.replay", 0, -1, 0)
	defer e.rec.end(root)
	for i, c := range cells {
		k, cfg, err := c.kernelConfig(opts)
		if err != nil {
			return err
		}
		sp := e.rec.begin("sim.run", 0, root, int64(i+1))
		t0 := time.Now()
		res, err := sim.RunPooledContext(context.Background(), cfg, k, ar)
		d := time.Since(t0)
		e.rec.end(sp)
		e.res.check(err == nil && reflect.DeepEqual(res.Stats, want[i].Stats),
			"replay of %s differs from the regeneration (err %v)", c, err)
		duplo := 0
		if cfg.Duplo {
			duplo = 1
			lookups += res.LHB.Lookups
			hits += res.LHB.Hits
		}
		host[duplo] += d
		cycles[duplo] += res.Cycles
	}
	e.res.add("sim.runs", float64(len(cells)))
	e.res.add("sim.host_s.base", host[0].Seconds())
	e.res.add("sim.host_s.duplo", host[1].Seconds())
	basePerCycle := host[0].Seconds() / float64(cycles[0])
	duploPerCycle := host[1].Seconds() / float64(cycles[1])
	e.res.add("sim.cycles_per_s.base", 1/basePerCycle)
	e.res.add("sim.cycles_per_s.duplo", 1/duploPerCycle)
	e.res.add("core.duplo_cost_ratio", duploPerCycle/basePerCycle)
	e.res.add("core.lhb_lookups", float64(lookups))
	if lookups > 0 {
		e.res.add("core.lhb_hit_rate", float64(hits)/float64(lookups))
	}
	return nil
}

// probePuts times store.Put of the regeneration's records into a fresh
// store, ten rounds over all keys.
func probePuts(e *env, srcDir string) error {
	src, err := store.Open(srcDir)
	if err != nil {
		return err
	}
	keys, err := storeKeys(srcDir)
	if err != nil {
		return err
	}
	recs := make([]store.Record, len(keys))
	for i, k := range keys {
		rec, ok := src.Get(k)
		e.res.check(ok, "stored record %q did not read back", k)
		recs[i] = rec
	}
	dst, err := store.Open(filepath.Join(e.dir, "put-probe"))
	if err != nil {
		return err
	}
	root := e.rec.begin("bench.put_probe", 0, -1, 0)
	defer e.rec.end(root)
	var lat []float64
	for round := 0; round < 10; round++ {
		for i, k := range keys {
			sp := e.rec.begin("store.put", 0, root, int64(i+1))
			t0 := time.Now()
			err := dst.Put(k, recs[i])
			lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
			e.rec.end(sp)
			e.res.check(err == nil, "store put %q: %v", k, err)
		}
	}
	s := sortedCopy(lat)
	e.res.add("store.put_us.p50", percentile(s, 0.50))
	e.res.add("store.put_us.p99", percentile(s, 0.99))
	return nil
}

// recordReference re-records reference.json from a cold regeneration and
// a predicted study (fidelity changes only: the digests pin simulated and
// predicted statistics).
func recordReference(layers []workload.Layer, dir string) error {
	cells := gridCells(layers)
	out, err := regenPass(layers, filepath.Join(dir, "cold"), nil, -1)
	if err != nil {
		return err
	}
	if out.err9 != nil || out.err10 != nil {
		return fmt.Errorf("regeneration failed: %v %v", out.err9, out.err10)
	}
	ref := reference{RegenCold: digest([]*report.Table{out.fig9, out.fig10}, cells, out.results)}
	calPath := filepath.Join(dir, "calibration.json")
	if err := calibrate(layers, calPath); err != nil {
		return err
	}
	st, err := predictedTables(layers, calPath, nil, -1)
	if err != nil {
		return err
	}
	ref.Predicted = st.digest()
	if err := saveReference(ref); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: recorded %s: %+v\n", referencePath, ref)
	return nil
}
