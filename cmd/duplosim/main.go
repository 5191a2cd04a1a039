// Command duplosim simulates one convolutional layer on the modeled GPU,
// baseline and (optionally) with the Duplo detection unit, and prints the
// statistics block.
//
// Usage:
//
//	duplosim -net ResNet -layer C2                 # baseline vs Duplo
//	duplosim -net YOLO -layer C4 -lhb 2048 -ways 8
//	duplosim -net GAN -layer TC1 -oracle -ctas 192
//	duplosim -net ResNet -layer C2 -workers 2      # baseline and Duplo in parallel
//	duplosim -net ResNet -layer C2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	duplosim -net ResNet -layer C2 -trace out.trace.json -metrics-csv out.csv
//	duplosim -net GAN -layer C4 -batch 16 -store ~/.cache/duplo
//
// With -workers > 1 (default GOMAXPROCS) the baseline and Duplo
// simulations run concurrently; output order and values are unchanged.
// -cpuprofile / -memprofile write pprof profiles of the simulator itself.
// The run flags shared with duploexp and duploserved build the same run
// config, so a -store shared with them serves the cells they stored. A
// -batch run is keyed like Fig. 13's batch sweep ("GAN/C4@b16").
//
// -trace writes a Perfetto/Chrome trace-event JSON timeline of the traced
// run (load it at https://ui.perfetto.dev) and -metrics-csv a per-interval
// time-series CSV whose counter columns sum exactly to the printed final
// statistics; -interval sets the bucket width in cycles and -trace-run
// picks which of the two runs (base or duplo) is traced. Tracing never
// changes the simulated results (internal/trace, DESIGN.md §4).
//
// -timeout and -max-cycles bound each simulation in wall-clock time and
// simulated cycles; Ctrl-C cancels cleanly. An aborted or livelocked run
// returns a structured error referencing a crash-dump file (written under
// -crash-dir, default the system temp dir) with the frozen pipeline state
// (DESIGN.md §5 "Robustness").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	duplo "duplo/internal/core"
	"duplo/internal/experiments"
	"duplo/internal/sim"
	"duplo/internal/trace"
	"duplo/internal/workload"
)

var (
	runOptions = experiments.RunFlags(flag.CommandLine) // the run flags duploexp and duploserved share

	net        = flag.String("net", "ResNet", "network (ResNet, GAN, YOLO)")
	layer      = flag.String("layer", "C2", "layer name from Table I (C1.., TC1..)")
	lhb        = flag.Int("lhb", 1024, "LHB entries")
	ways       = flag.Int("ways", 1, "LHB associativity")
	oracle     = flag.Bool("oracle", false, "infinite LHB")
	batch      = flag.Int("batch", 0, "override batch size (default Table I's 8)")
	traceOut   = flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON timeline to this file")
	metricsCSV = flag.String("metrics-csv", "", "write per-interval time-series metrics CSV to this file")
	interval   = flag.Int64("interval", 10000, "metrics interval in cycles (for -trace/-metrics-csv)")
	traceRun   = flag.String("trace-run", "duplo", "which run the tracer observes: base or duplo")
	timeout    = flag.Duration("timeout", 0, "abort either simulation past this much wall-clock time (0 = none)")
)

func main() {
	flag.Parse()
	// Ctrl-C / SIGTERM cancels the in-flight simulations; the error names
	// the cancellation point. A second signal kills the process outright.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opts, stop, err := runOptions()
	if err == nil {
		opts.Context, opts.WallTimeout = ctx, *timeout
		err = run(opts)
		if e := stop(); err == nil {
			err = e
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "duplosim:", err)
		os.Exit(1)
	}
}

func run(opts experiments.Options) error {
	l, err := workload.Find(*net, *layer)
	if err != nil {
		return err
	}
	k, err := experiments.BatchKernel(l, *batch)
	if err != nil {
		return err
	}
	// The runs use the runner's own config, so their keys match the cells
	// duploexp and duploserved write to a shared -store, and predicted runs
	// fall inside the calibrated envelope (traced runs fall outside it and
	// simulate as usual).
	cfg := opts.Config()

	fmt.Printf("%s: %v\n", l.FullName(), *k.Conv)
	fmt.Printf("GEMM %dx%dx%d (padded %dx%dx%d), %d CTAs total, simulating %d on %d SMs\n\n",
		k.M, k.N, k.K, k.MPad, k.NPad, k.KPad, k.TotalCTAs(), min(opts.MaxCTAs, k.TotalCTAs()), cfg.SimSMs)

	dcfg := cfg
	dcfg.Duplo = true
	dcfg.DetectCfg.LHB = duplo.LHBConfig{Entries: *lhb, Ways: *ways, Oracle: *oracle}

	// Attach the event collector to the requested run.
	var col *trace.Collector
	if *traceOut != "" || *metricsCSV != "" {
		col = trace.NewCollector(cfg.TraceMeta(*interval))
		switch *traceRun {
		case "base":
			cfg.Tracer = col
		case "duplo":
			dcfg.Tracer = col
		default:
			return fmt.Errorf("-trace-run must be base or duplo, got %q", *traceRun)
		}
	}

	// Both runs go through the experiments runner: with -workers > 1 the
	// baseline and Duplo simulations execute concurrently, and -store
	// warm-starts them from the on-disk result store (a traced run always
	// executes — the collector must observe a real execution).
	r := experiments.NewRunner(opts)
	var base, dup sim.Result
	var baseErr, dupErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); base, baseErr = r.Run(k, cfg) }()
	go func() { defer wg.Done(); dup, dupErr = r.Run(k, dcfg) }()
	wg.Wait()
	for _, err := range []error{baseErr, dupErr} {
		if err != nil {
			return err
		}
	}
	printStats("baseline", base)
	printStats("duplo", dup)

	mark := ""
	if base.Predicted || dup.Predicted {
		mark = " ~"
	}
	fmt.Printf("performance improvement: %+.1f%%%s\n", 100*sim.Speedup(base, dup), mark)
	fmt.Printf("DRAM read traffic:       %+.1f%%\n",
		100*(float64(dup.DRAMLines)/float64(base.DRAMLines)-1))
	fmt.Printf("LHB hit rate:            %.1f%% (%d lookups, %d hits)\n",
		100*dup.LHBHitRate(), dup.LHB.Lookups, dup.LHB.Hits)

	if col != nil {
		traced := dup
		if *traceRun == "base" {
			traced = base
		}
		col.Finish(traced.Cycles)
		if err := writeExports(col); err != nil {
			return err
		}
	}
	return nil
}

// writeExports dumps the collected run to the requested files.
func writeExports(col *trace.Collector) error {
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
	if err := write(*traceOut, col.WritePerfetto); err != nil {
		return err
	}
	if err := write(*metricsCSV, col.WriteCSV); err != nil {
		return err
	}
	if n := col.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "duplosim: ring buffers dropped %d events (timeline truncated at the front; interval metrics are exact)\n", n)
	}
	return nil
}

func printStats(name string, r sim.Result) {
	if r.Predicted {
		// Visibly distinguish synthesized stats from simulated ones, with
		// the calibration's expected relative error (DESIGN.md §9).
		name += fmt.Sprintf(" ~ predicted, expected error <= %.1f%%", 100*r.PredictedErr)
	}
	fmt.Printf("[%s]\n", name)
	fmt.Printf("  cycles            %12d\n", r.Cycles)
	fmt.Printf("  instructions      %12d (loads %d, MMAs %d, stores %d)\n",
		r.Instructions, r.TensorLoads, r.MMAs, r.Stores)
	fmt.Printf("  loads eliminated  %12d\n", r.LoadsEliminated)
	fmt.Printf("  L1 accesses/hits  %12d / %d\n", r.L1Accesses, r.L1Hits)
	fmt.Printf("  L2 accesses/hits  %12d / %d\n", r.L2Accesses, r.L2Hits)
	fmt.Printf("  DRAM lines        %12d\n", r.DRAMLines)
	fmt.Printf("  LDST stall cycles %12d\n", r.LDSTStallCycles)
	b := r.ServiceBreakdown()
	fmt.Printf("  served by         LHB %.1f%%  L1 %.1f%%  L2 %.1f%%  DRAM %.1f%%\n\n",
		100*b[sim.ServiceLHB], 100*b[sim.ServiceL1], 100*b[sim.ServiceL2], 100*b[sim.ServiceDRAM])
}

func min(a, b int) int {
	if a == 0 || b < a {
		return b
	}
	return a
}
