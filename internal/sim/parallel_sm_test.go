package sim

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	duplo "duplo/internal/core"
	"duplo/internal/trace"
	"duplo/internal/workload"
)

// smWorkerModes returns the same configuration on the serial reference loop
// and the sharded loop (forced to `workers` goroutines so the test exercises
// the two-phase tick even on a 1-core host).
func smWorkerModes(cfg Config, workers int) (serial, parallel Config) {
	serial = cfg
	serial.SMWorkers = 1
	parallel = cfg
	parallel.SMWorkers = workers
	return serial, parallel
}

// diffWorkers simulates k on the serial and sharded loops and requires
// byte-identical results (every Stats field plus the CTA counts; Config is
// an input and necessarily differs in SMWorkers).
func diffWorkers(t *testing.T, name string, cfg Config, k *Kernel, workers int) {
	t.Helper()
	serialCfg, parallelCfg := smWorkerModes(cfg, workers)
	se, err := Run(serialCfg, k)
	if err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	pa, err := Run(parallelCfg, k)
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	if se.Stats != pa.Stats {
		t.Errorf("%s: SM-worker modes diverged\nserial:   %+v\nparallel: %+v", name, se.Stats, pa.Stats)
	}
	if se.SimulatedCTAs != pa.SimulatedCTAs || se.TotalCTAs != pa.TotalCTAs {
		t.Errorf("%s: CTA counts diverged: %d/%d vs %d/%d",
			name, se.SimulatedCTAs, se.TotalCTAs, pa.SimulatedCTAs, pa.TotalCTAs)
	}
	// Hardened twin: a cancellable context with every guard armed at its
	// default must not perturb a healthy run — the hardening contract is
	// strictly observational (DESIGN.md §5).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hardCfg := parallelCfg
	hardCfg.WatchdogWindow = DefaultWatchdogWindow
	ha, err := RunContext(ctx, hardCfg, k)
	if err != nil {
		t.Fatalf("%s hardened: %v", name, err)
	}
	if ha.Stats != pa.Stats {
		t.Errorf("%s: hardened run diverged\nplain:    %+v\nhardened: %+v", name, pa.Stats, ha.Stats)
	}
}

// TestParallelSMsByteIdenticalSmall is the always-on differential gate for
// the sharded loop on the unit-test layer, baseline and Duplo.
func TestParallelSMsByteIdenticalSmall(t *testing.T) {
	k, err := NewConvKernel("shard-small", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	diffWorkers(t, "baseline", cfg, k, 2)
	cfg.Duplo = true
	cfg.DetectCfg.LHB = duplo.DefaultLHBConfig()
	diffWorkers(t, "duplo", cfg, k, 2)
}

// TestParallelSMsDifferentialMatrix is the full serial x parallel x
// {dense, event-driven} x {duplo off, LHB 1024, oracle} matrix over the
// Fig. 9 quick workloads — the acceptance gate of the SM-sharding PR, and
// the test the CI race job runs explicitly.
func TestParallelSMsDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	layers := [][2]string{{"ResNet", "C2"}, {"ResNet", "C3"}, {"GAN", "TC4"}}
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"duplo1024", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Entries: 1024, Ways: 1}
		}},
		{"oracle", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Oracle: true}
		}},
	}
	for _, id := range layers {
		l, err := workload.Find(id[0], id[1])
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewConvKernel(l.FullName(), l.GemmParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			for _, dense := range []bool{false, true} {
				// Quick scale, like experiments.QuickOptions.
				cfg := TitanVConfig()
				cfg.MaxCTAs = 12
				cfg.SimSMs = 2
				cfg.DenseClock = dense
				m.set(&cfg)
				name := l.FullName() + "/" + m.name
				if dense {
					name += "/dense"
				} else {
					name += "/event"
				}
				diffWorkers(t, name, cfg, k, 2)
			}
		}
	}
}

// traceRun executes one traced run and returns the collector plus rendered
// Perfetto and CSV outputs.
func traceRun(t *testing.T, cfg Config, k *Kernel) (*trace.Collector, []byte, []byte) {
	t.Helper()
	col := trace.NewCollector(cfg.TraceMeta(0))
	cfg.Tracer = col
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	col.Finish(res.Cycles)
	var perfetto, csv bytes.Buffer
	if err := col.WritePerfetto(&perfetto); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return col, perfetto.Bytes(), csv.Bytes()
}

// TestParallelSMsTraceIdentical asserts the sharded loop reproduces the
// serial trace exactly: the per-SM event streams in capture order (phase B
// splices replayed service events back between the buffered issue events),
// the merged interval series, and the rendered Perfetto/CSV bytes.
func TestParallelSMsTraceIdentical(t *testing.T) {
	k, err := NewConvKernel("shard-trace", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig()
	base.Duplo = true
	base.DetectCfg.LHB = duplo.DefaultLHBConfig()
	serialCfg, parallelCfg := smWorkerModes(base, 2)

	sCol, sPerfetto, sCSV := traceRun(t, serialCfg, k)
	pCol, pPerfetto, pCSV := traceRun(t, parallelCfg, k)

	if sCol.Dropped() != 0 || pCol.Dropped() != 0 {
		t.Fatalf("ring overflow (serial %d, parallel %d dropped): grow RingCap for this test",
			sCol.Dropped(), pCol.Dropped())
	}
	for sm := 0; sm < base.SimSMs; sm++ {
		se, pe := sCol.Events(sm), pCol.Events(sm)
		if len(se) != len(pe) {
			t.Fatalf("SM %d: event count diverged: %d vs %d", sm, len(se), len(pe))
		}
		for i := range se {
			if se[i] != pe[i] {
				t.Fatalf("SM %d event %d diverged:\nserial:   %+v\nparallel: %+v", sm, i, se[i], pe[i])
			}
		}
	}
	si, pi := sCol.Intervals(), pCol.Intervals()
	if len(si) != len(pi) {
		t.Fatalf("interval count diverged: %d vs %d", len(si), len(pi))
	}
	for i := range si {
		if si[i] != pi[i] {
			t.Fatalf("interval %d diverged:\nserial:   %+v\nparallel: %+v", i, si[i], pi[i])
		}
	}
	if !bytes.Equal(sPerfetto, pPerfetto) {
		t.Error("Perfetto output diverged between serial and sharded loops")
	}
	if !bytes.Equal(sCSV, pCSV) {
		t.Error("CSV output diverged between serial and sharded loops")
	}
}

// TestParallelSMsRaceHammer runs sharded-mode simulations concurrently from
// multiple goroutines (mirroring TestRunConcurrentMatchesSerial) so the
// race detector sees the worker handoff under contention, and checks every
// result against its serial reference. GOMAXPROCS is raised for the
// duration so the worker goroutines actually spawn (runShardedLoop runs
// shards inline on a single-processor runtime) even on a 1-core host.
func TestParallelSMsRaceHammer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	k, err := NewConvKernel("shard-hammer", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, 0, 3)
	{
		cfg := testConfig()
		cfgs = append(cfgs, cfg)
		dup := cfg
		dup.Duplo = true
		dup.DetectCfg.LHB = duplo.DefaultLHBConfig()
		cfgs = append(cfgs, dup)
		dense := dup
		dense.DenseClock = true
		cfgs = append(cfgs, dense)
	}
	refs := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg.SMWorkers = 1
		ref, err := Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	const replicas = 3
	var wg sync.WaitGroup
	errCh := make(chan error, len(cfgs)*replicas)
	for rep := 0; rep < replicas; rep++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			cfg.SMWorkers = 2
			go func(i int, cfg Config) {
				defer wg.Done()
				res, err := Run(cfg, k)
				if err != nil {
					errCh <- err
					return
				}
				if res.Stats != refs[i].Stats {
					t.Errorf("cfg %d: sharded run diverged from serial reference", i)
				}
			}(i, cfg)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestWarpProgramMemoized pins the memoization contract: placeCTA-visible
// instruction streams from the canonical shared programs (relocated by the
// warp offsets) must match a freshly built absolute-address program for
// every warp of interior and edge CTAs alike. The cache is lazy: the
// constructor leaves it unbuilt, the first program call builds it, and
// later calls return the same programs.
func TestWarpProgramMemoized(t *testing.T) {
	k, err := NewConvKernel("memo", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	if k.progs != nil {
		t.Fatal("constructor built the program cache; it must wait for the first program call")
	}
	first := k.program(warpTileM, warpTileN)
	if k.progs == nil || first != k.progs[warpTileM][warpTileN] {
		t.Fatal("first program call did not build and serve the program cache")
	}
	if again := k.program(warpTileM, warpTileN); again != first {
		t.Fatal("second program call returned a different program")
	}
	gm, gn := k.GridCTAs()
	ctas := []int{0, gn - 1, (gm - 1) * gn, gm*gn - 1} // corners incl. edge tiles
	for _, cta := range ctas {
		for w := 0; w < warpsPerCTA; w++ {
			ref := newWarpProgram(k, k.warpAssignments(cta)[w])
			rt, ct, firstRow, firstCol := k.warpShape(cta, w)
			got := k.program(rt, ct)
			if got.Len() != ref.Len() {
				t.Fatalf("CTA %d warp %d: length %d, want %d", cta, w, got.Len(), ref.Len())
			}
			if ref.Len() == 0 {
				continue
			}
			if rt >= 1 && rt <= warpTileM && ct >= 1 && ct <= warpTileN && got != k.progs[rt][ct] {
				t.Fatalf("CTA %d warp %d: program not served from the cache", cta, w)
			}
			aOff, bOff, dOff := k.warpOffsets(firstRow, firstCol)
			for i := 0; i < ref.Len(); i++ {
				in := got.At(i)
				relocateInstr(&in, aOff, bOff, dOff)
				if want := ref.At(i); in != want {
					t.Fatalf("CTA %d warp %d instr %d: relocated %+v, want %+v", cta, w, i, in, want)
				}
			}
		}
	}
}

// TestWarpProgramLazyConcurrentFirstUse makes the first program call on
// one fresh kernel from 8 goroutines at once, as the SM shards of a
// sharded run do: under -race this audits the lazy build, and every
// goroutine must be served the same program for every warp shape.
func TestWarpProgramLazyConcurrentFirstUse(t *testing.T) {
	k, err := NewConvKernel("lazy", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var got [goroutines]progCache
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for rt := 1; rt <= warpTileM; rt++ {
				for ct := 1; ct <= warpTileN; ct++ {
					got[g][rt][ct] = k.program(rt, ct)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != *k.progs {
			t.Fatalf("goroutine %d was served programs other than the cache's", g)
		}
	}
}
