// Command duploserved serves simulations over HTTP: submit jobs, stream
// whole-figure sweeps, and share one warm content-addressed result store
// across any number of clients (internal/server, DESIGN.md §8).
//
// Usage:
//
//	duploserved -addr 127.0.0.1:8080 -store ~/.cache/duplo
//	duploserved -addr 127.0.0.1:0               # pick a free port (printed)
//	duploserved -ctas 192 -sms 8 -workers 16    # scale the cell size / pool
//
// API (JSON; errors are typed problem documents):
//
//	curl -X POST localhost:8080/v1/runs -d '{"network":"ResNet","layer":"C2","duplo":true}'
//	curl localhost:8080/v1/runs/r000001
//	curl -X DELETE localhost:8080/v1/runs/r000001   # cancel
//	curl localhost:8080/v1/sweeps/fig9              # NDJSON progress stream
//	curl localhost:8080/v1/sweeps/cluster           # DES cluster serving sweep (-seed fixes the traffic)
//	curl localhost:8080/healthz
//	curl localhost:8080/statsz                      # includes the predictor block
//	curl -X POST localhost:8080/v1/calibrate        # fit/load the predictor calibration
//
// With -predict predict-all, sweeps serve every in-envelope cell whose
// family passed the calibration gate from the calibrated analytical model
// (DESIGN.md §9) instead of cycle-sim; predicted cells are "~"-marked in
// tables and counted in /statsz. POST /v1/calibrate (add ?force=1 to refit) pre-warms the
// calibration; jobs submitted via /v1/runs always run real cycle-sim.
//
// -max-cycles and -wall-timeout set the default per-job budgets (each job
// may tighten its own via max_cycles / wall_timeout_ms). Ctrl-C/SIGTERM
// drains: in-flight jobs are cancelled (clients see the typed
// "cancelled" error) and open connections get a grace period to finish.
//
// -cpuprofile / -memprofile write pprof profiles of the daemon itself
// (flushed on clean shutdown) — the same flags duplosim and duploexp
// take, for performance work on the serving path.
//
// Operational robustness (DESIGN.md §12): -max-inflight/-queue-cap bound
// job admission (shed 429 + Retry-After beyond them), -max-sweeps bounds
// streaming sweeps (503), -max-body bounds POST bodies (413), -job-ttl
// evicts finished jobs (evicted ids answer 410 gone). Store failures
// retry with backoff (-store-retries) and trip a circuit breaker
// (-breaker-threshold / -breaker-open) that degrades the daemon to
// memo-only rather than failing jobs; /healthz reports degraded (503
// under ?strict=1) until the disk recovers. -journal records job
// starts/ends so a killed daemon reports in-flight jobs as typed
// "interrupted" after restart. -fault-spec/-fault-seed arm deterministic
// fault injection for chaos testing — never in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/fault"
	"duplo/internal/server"
	"duplo/internal/store"
)

var (
	runOptions = experiments.RunFlags(flag.CommandLine) // the run flags duploexp and duplosim share

	addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the bound address is printed)")
	wallTimeout = flag.Duration("wall-timeout", 0, "default per-job wall-clock budget (0 = none)")
	gracePeriod = flag.Duration("grace", 5*time.Second, "shutdown grace period for open connections")
	seed        = flag.Int64("seed", 0, "serving cluster RNG seed for /v1/sweeps/cluster (0 = default 1)")
	verbose     = flag.Bool("v", false, "log job progress to stderr")

	// Operational-robustness knobs (DESIGN.md §12).
	maxInflight = flag.Int("max-inflight", 16, "max concurrently executing jobs (0 = unbounded)")
	queueCap    = flag.Int("queue-cap", 64, "max pending jobs beyond the in-flight bound; above it submissions get 429 + Retry-After")
	maxSweeps   = flag.Int("max-sweeps", 4, "max concurrently streaming sweeps; above it 503 + Retry-After (0 = unbounded)")
	jobTTL      = flag.Duration("job-ttl", time.Hour, "retention of finished jobs; evicted ids answer 410 gone (0 = keep forever)")
	journalPath = flag.String("journal", "", "job journal path for crash recovery (default <store>/journal.jsonl; \"none\" disables)")
	maxBody     = flag.Int64("max-body", 1<<20, "max POST body bytes; above it a typed 413 (0 = unbounded)")

	// Store resilience (requires -store).
	breakerThreshold = flag.Int("breaker-threshold", 5, "consecutive store failures that trip the circuit breaker")
	breakerOpen      = flag.Duration("breaker-open", 5*time.Second, "open-breaker dwell before a half-open probe")
	storeRetries     = flag.Int("store-retries", 2, "retries per transient store failure (exponential backoff + jitter; 0 = none)")

	// Deterministic fault injection — test/chaos tooling, never set in
	// production (internal/fault; an empty spec arms nothing).
	faultSpec = flag.String("fault-spec", "", "semicolon-separated fault rules, e.g. 'store-read:p=0.1;sim:nth=3' (testing only)")
	faultSeed = flag.Int64("fault-seed", 1, "seed for probabilistic fault rules")
)

func main() {
	flag.Parse()
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opts, stop, err := runOptions()
	if err == nil {
		opts.Context, opts.WallTimeout, opts.Seed = ctx, *wallTimeout, *seed
		err = run(ctx, opts)
		if e := stop(); err == nil {
			err = e
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "duploserved:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts experiments.Options) error {
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}

	// Fault injection is armed only by an explicit -fault-spec; the nil
	// injector leaves the production path hook-free.
	var injector *fault.Injector
	if *faultSpec != "" {
		var err error
		injector, err = fault.Parse(*faultSpec, *faultSeed)
		if err != nil {
			return err
		}
		opts.Faults = injector
		fmt.Fprintln(os.Stderr, "duploserved: FAULT INJECTION ARMED:", *faultSpec)
	}

	cfg := server.Config{
		Options:      opts,
		MaxInflight:  *maxInflight,
		QueueCap:     *queueCap,
		MaxSweeps:    *maxSweeps,
		JobTTL:       *jobTTL,
		MaxBodyBytes: *maxBody,
	}
	if st := opts.Store; st != nil {
		if injector != nil {
			st.SetFaults(injector)
		}
		st.EnableResilience(store.ResilienceConfig{
			FailureThreshold: *breakerThreshold,
			OpenFor:          *breakerOpen,
			Retries:          *storeRetries,
			Seed:             *seed,
		})
		cfg.Store = st
	} else {
		fmt.Fprintln(os.Stderr, "duploserved: no -store: results die with the process")
	}
	jpath := *journalPath
	if jpath == "" && opts.Store != nil {
		jpath = filepath.Join(opts.Store.Dir(), "journal.jsonl")
	}
	if jpath != "" && jpath != "none" {
		jl, err := server.OpenJournal(jpath)
		if err != nil {
			return err
		}
		defer jl.Close()
		if n := len(jl.Interrupted()); n > 0 {
			fmt.Fprintf(os.Stderr, "duploserved: journal: %d job(s) interrupted by a previous crash\n", n)
		}
		cfg.Journal = jl
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so scripts (and the CI smoke) can
	// use -addr host:0 and parse the actual port.
	fmt.Printf("duploserved listening on %s\n", ln.Addr())

	srv := &http.Server{
		Handler:     server.New(cfg).Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Header/read bounds defend the accept loop; the write timeout
		// bounds silent responses, with the NDJSON sweep stream exempted
		// via its per-event sliding deadline (internal/server/sweep.go).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "duploserved: shutting down (in-flight jobs cancelled)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *gracePeriod)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
