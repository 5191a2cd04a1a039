package sim

import (
	"fmt"
	"testing"

	duplo "duplo/internal/core"
	"duplo/internal/trace"
)

// TestTraceVocabularyMatchesSim pins the numeric correspondence between
// sim's ServiceLevel/Op values and trace's mirrored constants (trace
// cannot import sim, so the contract is asserted here).
func TestTraceVocabularyMatchesSim(t *testing.T) {
	levels := map[ServiceLevel]int8{
		ServiceLHB:  trace.LevelLHB,
		ServiceL1:   trace.LevelL1,
		ServiceL2:   trace.LevelL2,
		ServiceDRAM: trace.LevelDRAM,
	}
	for s, l := range levels {
		if int8(s) != l {
			t.Errorf("ServiceLevel %v = %d, trace level %d", s, s, l)
		}
		if s.String() != trace.LevelName(l) {
			t.Errorf("level name mismatch: %q vs %q", s.String(), trace.LevelName(l))
		}
	}
	if int(serviceLevels) != int(trace.NumLevels) {
		t.Errorf("level count mismatch: %d vs %d", serviceLevels, trace.NumLevels)
	}
	ops := map[Op]int8{
		OpLoadA:  trace.OpLoadA,
		OpLoadB:  trace.OpLoadB,
		OpMMA:    trace.OpMMA,
		OpStoreD: trace.OpStoreD,
	}
	for o, to := range ops {
		if int8(o) != to {
			t.Errorf("Op %v = %d, trace op %d", o, o, to)
		}
		if o.String() != trace.OpName(to) {
			t.Errorf("op name mismatch: %q vs %q", o.String(), trace.OpName(to))
		}
	}
}

// traceMatrix enumerates the duplo x clock configurations the tracing
// tests cover.
func traceMatrix() []struct {
	name string
	set  func(*Config)
} {
	return []struct {
		name string
		set  func(*Config)
	}{
		{"base/event", func(c *Config) {}},
		{"base/dense", func(c *Config) { c.denseClock = true }},
		{"duplo/event", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.DefaultLHBConfig()
		}},
		{"duplo/dense", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.DefaultLHBConfig()
			c.denseClock = true
		}},
	}
}

// TestTracingDoesNotPerturb is the tracing differential gate: a run with a
// nil tracer, the no-op tracer, and a full Collector must produce
// byte-identical Results in every duplo x clock mode — tracing observes
// the machine, it never becomes part of it.
func TestTracingDoesNotPerturb(t *testing.T) {
	k, err := NewConvKernel("trace-diff", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range traceMatrix() {
		cfg := testConfig()
		m.set(&cfg)

		ref, err := Run(cfg, k)
		if err != nil {
			t.Fatalf("%s nil tracer: %v", m.name, err)
		}

		nopCfg := cfg
		nopCfg.Tracer = trace.Nop{}
		nop, err := Run(nopCfg, k)
		if err != nil {
			t.Fatalf("%s nop tracer: %v", m.name, err)
		}
		if nop.Stats != ref.Stats {
			t.Errorf("%s: no-op tracer perturbed the run\nnil: %+v\nnop: %+v", m.name, ref.Stats, nop.Stats)
		}

		colCfg := cfg
		col := trace.NewCollector(cfg.TraceMeta(1000))
		colCfg.Tracer = col
		traced, err := Run(colCfg, k)
		if err != nil {
			t.Fatalf("%s collector: %v", m.name, err)
		}
		if traced.Stats != ref.Stats {
			t.Errorf("%s: collecting tracer perturbed the run\nnil:   %+v\ntraced: %+v", m.name, ref.Stats, traced.Stats)
		}
		if traced.SimulatedCTAs != ref.SimulatedCTAs || traced.TotalCTAs != ref.TotalCTAs {
			t.Errorf("%s: CTA counts diverged", m.name)
		}
	}
}

// collect runs k under cfg with a fresh collector attached and returns
// both.
func collect(t *testing.T, cfg Config, k *Kernel, interval int64) (Result, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector(cfg.TraceMeta(interval))
	cfg.Tracer = col
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	col.Finish(res.Cycles)
	return res, col
}

// TestIntervalConservation: summing every interval's counters must
// reproduce the final Stats exactly — on both clocks, so the skipped
// spans' arithmetic apportioning is covered — and the per-interval series
// itself must be identical across clock modes (a skipped span lands its
// stall cycles in the same buckets dense ticking would have). The uneven
// slices leave SMs idle while others run, so their spans are settled at
// run end.
func TestIntervalConservation(t *testing.T) {
	k, err := NewConvKernel("trace-conserve", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately awkward interval so spans cross bucket boundaries.
	const interval = 777
	base := testConfig()
	for _, sl := range unevenSlices(base.SimSMs, base.MaxCTAs) {
		for _, duploOn := range []bool{false, true} {
			conserveIntervals(t, fmt.Sprintf("%dsm-%dcta/duplo=%v", sl.sms, sl.ctas, duploOn),
				k, sl.sms, sl.ctas, duploOn, interval)
		}
	}
}

// conserveIntervals is one TestIntervalConservation case.
func conserveIntervals(t *testing.T, name string, k *Kernel, sms, ctas int, duploOn bool, interval int64) {
	t.Helper()
	cfg := testConfig()
	cfg.SimSMs, cfg.MaxCTAs = sms, ctas
	if duploOn {
		cfg.Duplo = true
		cfg.DetectCfg.LHB = duplo.DefaultLHBConfig()
	}
	evCfg := cfg
	evCfg.denseClock = false
	deCfg := cfg
	deCfg.denseClock = true

	evRes, evCol := collect(t, evCfg, k, interval)
	deRes, deCol := collect(t, deCfg, k, interval)
	if evRes.Stats != deRes.Stats {
		t.Fatalf("%s: clock modes diverged (pre-existing gate)", name)
	}

	for _, c := range []struct {
		clock string
		res   Result
		col   *trace.Collector
	}{{"event", evRes, evCol}, {"dense", deRes, deCol}} {
		tot := c.col.Totals()
		s := c.res.Stats
		checks := []struct {
			name      string
			got, want int64
		}{
			{"Instructions", tot.Instructions, s.Instructions},
			{"TensorLoads", tot.TensorLoads, s.TensorLoads},
			{"LoadsEliminated", tot.LoadsEliminated, s.LoadsEliminated},
			{"MMAs", tot.MMAs, s.MMAs},
			{"Stores", tot.Stores, s.Stores},
			{"IssueStallCycles", tot.IssueStallCycles, s.IssueStallCycles},
			{"LDSTStallCycles", tot.LDSTStallCycles, s.LDSTStallCycles},
			{"MSHRMerges", tot.MSHRMerges, s.MSHRMerges},
			{"DRAMLines", tot.DRAMLines(), s.DRAMLines},
			{"ServiceLHB", tot.ServiceLines[trace.LevelLHB], s.ServiceLines[ServiceLHB]},
			{"ServiceL1", tot.ServiceLines[trace.LevelL1], s.ServiceLines[ServiceL1]},
			{"ServiceL2", tot.ServiceLines[trace.LevelL2], s.ServiceLines[ServiceL2]},
			{"ServiceDRAM", tot.ServiceLines[trace.LevelDRAM], s.ServiceLines[ServiceDRAM]},
		}
		for _, ch := range checks {
			if ch.got != ch.want {
				t.Errorf("%s %s clock: interval sum %s = %d, Stats %d",
					name, c.clock, ch.name, ch.got, ch.want)
			}
		}
	}

	// Interval-by-interval equality across clocks.
	evIv, deIv := evCol.Intervals(), deCol.Intervals()
	if len(evIv) != len(deIv) {
		t.Fatalf("%s: interval counts differ: %d vs %d", name, len(evIv), len(deIv))
	}
	for i := range evIv {
		if evIv[i] != deIv[i] {
			t.Errorf("%s interval %d diverged across clocks\nevent: %+v\ndense: %+v",
				name, i, evIv[i], deIv[i])
		}
	}
}

// TestIntervalCoverage: the merged series is contiguous from cycle 0
// through the run's end, with the last partial interval clipped to the
// true cycle count.
func TestIntervalCoverage(t *testing.T) {
	k, err := NewConvKernel("trace-cover", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	const interval = 1000
	res, col := collect(t, testConfig(), k, interval)
	ivs := col.Intervals()
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	var covered int64
	for i, iv := range ivs {
		if iv.Start != int64(i)*interval {
			t.Fatalf("interval %d starts at %d", i, iv.Start)
		}
		covered += iv.Cycles
	}
	if covered != res.Cycles {
		t.Fatalf("intervals cover %d cycles, run had %d", covered, res.Cycles)
	}
	last := ivs[len(ivs)-1]
	if want := res.Cycles - last.Start; last.Cycles != want {
		t.Fatalf("last interval cycles = %d, want %d", last.Cycles, want)
	}
}
