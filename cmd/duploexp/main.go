// Command duploexp regenerates the paper's tables and figures (the
// per-experiment index is in DESIGN.md §3).
//
// Usage:
//
//	duploexp -exp all                 # everything
//	duploexp -exp fig9 -ctas 192      # one experiment, more CTAs
//	duploexp -exp fig14 -ctas 0       # uncapped grids (slow)
//	duploexp -exp fig9 -workers 8     # bound the simulation worker pool
//	duploexp -exp fig9 -cpuprofile cpu.pprof
//	duploexp -exp table2
//	duploexp -exp all -store ~/.cache/duplo    # warm-start across invocations
//
// Independent simulations run on a worker pool (default GOMAXPROCS wide;
// -workers 1 forces the serial path). Tables are byte-identical at any
// worker count. -cpuprofile / -memprofile write pprof profiles of the
// whole run for performance work on the engine.
//
// -store DIR backs the run cache with the on-disk content-addressed
// result store (internal/store, DESIGN.md §8): results persist across
// invocations, so re-rendering a table whose cells are already stored
// simulates nothing and is byte-identical to the cold run. The same
// directory can back a duploserved daemon.
//
// To trace one cell, run it through duplosim at the same scale:
// duplosim -net ResNet -layer C2 -trace c2.trace.json writes its Perfetto
// timeline (internal/trace, DESIGN.md §4).
//
// The run degrades gracefully instead of aborting: a failed simulation
// renders its cells as ERR and the remaining experiments still run, with a
// non-zero exit at the end. Ctrl-C (or SIGTERM, or the -timeout deadline)
// cancels in-flight simulations, flushes the partial tables computed so
// far, and exits non-zero. -max-cycles bounds each simulation's cycle
// count as a livelock backstop (see DESIGN.md §5 "Robustness").
//
// -predict engages the calibrated analytical fast path (DESIGN.md §9):
// "predict-all" synthesizes every in-envelope cell from the per-family
// linear model, "hybrid" predicts only low-uncertainty, non-headline
// cells (bounded by -predict-bound) and simulates the rest. The first
// predicted run fits (or loads) the calibration; `-exp calibrate`
// refits explicitly and prints the fit report with the gate verdict.
// Predicted cells are marked "~" and each affected table carries a
// max-predicted-error footer; predictions are never written to -store:
//
//	duploexp -exp calibrate -store ~/.cache/duplo   # fit + persist + report
//	duploexp -exp fig9 -predict predict-all -store ~/.cache/duplo
//	duploexp -exp fig9 -predict hybrid -predict-bound 0.10
//
// -exp cluster runs the discrete-event cluster serving experiment
// (DESIGN.md §10): N chips serving Poisson request traffic whose
// per-request service times come from the cycle-accurate per-layer
// results, Duplo off vs on, across routing policies and offered loads.
// -seed fixes the arrival-process RNG (the table is byte-identical across
// repeated runs and worker counts at a fixed seed). -cluster-timeline
// writes a Chrome/Perfetto timeline of one serving cell (per-chip batch
// spans + queue-depth counters) and -cluster-queues its queue-depth CSV;
// both take the cell from -cluster-load/-cluster-duplo (-exp none skips
// the experiment tables):
//
//	duploexp -exp cluster -seed 7 -store ~/.cache/duplo
//	duploexp -exp none -cluster-timeline cluster.json -cluster-load 0.8
//
// Experiments: table1 table2 table3 fig2 fig3 fig9 fig10 fig11 fig12 fig13
// fig14 energy latency smem cache evict index limits calibrate cluster.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"duplo/internal/experiments"
)

var (
	runOptions = experiments.RunFlags(flag.CommandLine) // the run flags duplosim and duploserved share

	exp     = flag.String("exp", "all", "experiment id (see package doc), 'all', or 'none'")
	verbose = flag.Bool("v", false, "print progress")
	csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	timeout = flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation (0 = none); partial tables are flushed")

	seed         = flag.Int64("seed", 0, "serving cluster RNG seed (0 = default 1); fixed seed => byte-identical cluster tables at any worker count")
	clusterTL    = flag.String("cluster-timeline", "", "write a Chrome/Perfetto timeline of one cluster serving cell to this file")
	clusterQCSV  = flag.String("cluster-queues", "", "write the cluster cell's queue-depth samples as CSV to this file")
	clusterLoad  = flag.Float64("cluster-load", 0.8, "offered load of the exported cluster cell, as a fraction of baseline capacity")
	clusterDuplo = flag.Bool("cluster-duplo", true, "export the cluster cell with Duplo on (false = baseline fleet)")
)

// errUnknownExperiment preserves the historical exit code 2 for a bad -exp.
var errUnknownExperiment = errors.New("unknown experiment")

func main() {
	flag.Parse()
	// Ctrl-C / SIGTERM cancels in-flight simulations through the context;
	// the engine returns partial tables with ERR cells, which still get
	// rendered before the non-zero exit. A second signal kills the process
	// the usual way (NotifyContext restores the default handler on stop).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts, stop, err := runOptions()
	if err == nil {
		opts.Context, opts.Seed = ctx, *seed
		err = run(opts)
		if e := stop(); err == nil {
			err = e
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "duploexp:", err)
		if errors.Is(err, errUnknownExperiment) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(opts experiments.Options) error {
	if *verbose {
		opts.Verbose = true
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}
	r := experiments.NewRunner(opts)

	var failed []string
	if *exp != "none" {
		found := false
		for _, e := range r.Sweeps() {
			if *exp != "all" && *exp != e.ID {
				continue
			}
			found = true
			t0 := time.Now()
			tbl, err := e.Run()
			// A partial table (ERR cells) comes back alongside the error;
			// flush it before recording the failure and moving on.
			if tbl != nil {
				if *csv {
					tbl.CSV(os.Stdout)
				} else {
					tbl.Render(os.Stdout)
				}
			}
			if err != nil {
				failed = append(failed, e.ID)
				fmt.Fprintf(os.Stderr, "duploexp: %s: %v\n", e.ID, err)
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "[%s took %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
			}
			fmt.Println()
			if opts.Context.Err() != nil {
				fmt.Fprintln(os.Stderr, "duploexp: interrupted; partial tables flushed")
				break
			}
		}
		if !found {
			return fmt.Errorf("%w %q", errUnknownExperiment, *exp)
		}
	}
	if err := clusterCellRun(r); err != nil {
		failed = append(failed, "cluster-cell")
		fmt.Fprintf(os.Stderr, "duploexp: cluster-cell: %v\n", err)
	}
	if *verbose {
		cs := r.CacheStats()
		fmt.Fprintf(os.Stderr, "[runner: %d workers, %d simulated, %d memo hits, %d store hits, %d predicted]\n",
			cs.Workers, cs.Execs, cs.MemHits, cs.StoreHits, cs.Predicted)
		if st := r.Store(); st != nil {
			c := st.Counters()
			fmt.Fprintf(os.Stderr, "[store %s: %d hits, %d misses, %d written, %d put errors, %d corrupt, %d version-skipped]\n",
				st.Dir(), c.Hits, c.Misses, c.Puts, c.PutErrors, c.Corruptions, c.VersionSkips)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of the requested experiments failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// clusterCellRun exports one cluster serving cell's observability files
// (-cluster-timeline / -cluster-queues). The cell shares the runner cache
// with -exp cluster, so combining the two in one invocation simulates
// each latency table cell once.
func clusterCellRun(r *experiments.Runner) error {
	if *clusterTL == "" && *clusterQCSV == "" {
		return nil
	}
	m, err := r.ClusterCell(*clusterLoad, *clusterDuplo)
	if err != nil {
		return err
	}
	write := func(path string, dump func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := dump(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(*clusterTL, m.WriteTimeline); err != nil {
		return err
	}
	if err := write(*clusterQCSV, func(w io.Writer) error { m.QueueDepthTable().CSV(w); return nil }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cluster cell (load %.1fx, duplo=%v): %s\n", *clusterLoad, *clusterDuplo, m.Summary())
	return nil
}
