package serving

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// testTable builds a two-class latency table with simple service times:
// "fast" serves a batch of up to 8 in 1 ms, up to 32 in 2 ms; "slow"
// in 4/6 ms.
func testTable() *LatencyTable {
	tbl := NewLatencyTable()
	tbl.Set("fast", 1, 500_000)
	tbl.Set("fast", 8, 1_000_000)
	tbl.Set("fast", 32, 2_000_000)
	tbl.Set("slow", 1, 2_000_000)
	tbl.Set("slow", 8, 4_000_000)
	tbl.Set("slow", 32, 6_000_000)
	return tbl
}

func testConfig(policy Policy, seed int64) Config {
	return Config{
		Chips:            4,
		Policy:           policy,
		MaxBatch:         8,
		QueueCap:         64,
		HorizonNanos:     2_000_000_000, // 2 s
		Seed:             seed,
		Table:            testTable(),
		SampleEveryNanos: 100_000_000,
		Classes: []Class{
			{Name: "fast", Arrival: Exponential{Rate: 2000}, SLONanos: 20_000_000},
			{Name: "slow", Arrival: Exponential{Rate: 200}, SLONanos: 50_000_000},
		},
	}
}

// canonical renders everything a client could observe from a run into one
// string, for byte-identity comparisons.
func canonical(t *testing.T, m *Metrics) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(m.Summary())
	b.WriteByte('\n')
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "%s offered=%d admitted=%d rejected=%d completed=%d good=%d p50=%d p95=%d p99=%d max=%d mean=%d\n",
			c.Name, c.Offered, c.Admitted, c.Rejected, c.Completed, c.Good,
			c.P50Nanos, c.P95Nanos, c.P99Nanos, c.MaxNanos, c.MeanNanos)
	}
	m.QueueDepthTable().Render(&b)
	if err := m.WriteTimeline(&b); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	return b.String()
}

// TestClusterDeterministic: the same seed yields byte-identical metrics
// across repeated runs and across GOMAXPROCS values (the loop is
// single-threaded by construction; this is the regression gate), and a
// different seed yields different traffic.
func TestClusterDeterministic(t *testing.T) {
	for _, policy := range Policies() {
		cfg := testConfig(policy, 7)
		cfg.RecordSpans = true
		m1, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		ref := canonical(t, m1)

		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			m2, err := Run(cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%v at GOMAXPROCS=%d: %v", policy, procs, err)
			}
			if got := canonical(t, m2); got != ref {
				t.Fatalf("%v: metrics differ at GOMAXPROCS=%d:\n--- ref\n%s\n--- got\n%s", policy, procs, ref, got)
			}
		}

		other := testConfig(policy, 8)
		other.RecordSpans = true
		m3, err := Run(other)
		if err != nil {
			t.Fatalf("%v seed 8: %v", policy, err)
		}
		if canonical(t, m3) == ref {
			t.Fatalf("%v: different seeds produced identical metrics", policy)
		}
	}
}

// TestClusterConservation: every offered request is admitted or rejected,
// every admitted request completes (the loop drains), and goodput never
// exceeds completions.
func TestClusterConservation(t *testing.T) {
	for _, policy := range Policies() {
		m, err := Run(testConfig(policy, 3))
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if m.Offered == 0 {
			t.Fatalf("%v: no traffic generated", policy)
		}
		if m.Admitted+m.Rejected != m.Offered {
			t.Errorf("%v: admitted %d + rejected %d != offered %d", policy, m.Admitted, m.Rejected, m.Offered)
		}
		if m.Completed != m.Admitted {
			t.Errorf("%v: completed %d != admitted %d (drain broken)", policy, m.Completed, m.Admitted)
		}
		if m.Good > m.Completed {
			t.Errorf("%v: good %d > completed %d", policy, m.Good, m.Completed)
		}
		if m.BatchedRequests != m.Admitted {
			t.Errorf("%v: batched %d != admitted %d", policy, m.BatchedRequests, m.Admitted)
		}
		for _, c := range m.Classes {
			if c.Completed > 0 && (c.P50Nanos <= 0 || c.P99Nanos < c.P50Nanos || c.MaxNanos < c.P99Nanos) {
				t.Errorf("%v %s: implausible percentiles p50=%d p99=%d max=%d", policy, c.Name, c.P50Nanos, c.P99Nanos, c.MaxNanos)
			}
		}
	}
}

// TestClusterBatching: with batching enabled the fast class's mean batch
// exceeds one under load, and a MaxBatch=1 run forms only singletons.
func TestClusterBatching(t *testing.T) {
	cfg := testConfig(RoundRobin, 5)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches == 0 || m.BatchedRequests <= m.Batches {
		t.Errorf("expected multi-request batches under load: %d requests in %d batches", m.BatchedRequests, m.Batches)
	}
	cfg.MaxBatch = 1
	m1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.BatchedRequests != m1.Batches {
		t.Errorf("MaxBatch=1 must form singleton batches: %d requests in %d batches", m1.BatchedRequests, m1.Batches)
	}
}

// TestClusterAdmission: a tiny queue cap under overload rejects traffic;
// an unbounded queue rejects nothing.
func TestClusterAdmission(t *testing.T) {
	cfg := testConfig(RoundRobin, 9)
	cfg.QueueCap = 2
	cfg.Classes[0].Arrival = Exponential{Rate: 20000} // far past capacity
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected == 0 {
		t.Error("overloaded tiny queue must reject")
	}
	cfg.QueueCap = 0
	m0, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Rejected != 0 {
		t.Errorf("unbounded queue rejected %d", m0.Rejected)
	}
}

// TestClusterRoutingBalance: under symmetric load, JSQ and least-loaded
// keep the max per-chip queue no deeper than round-robin does (they react
// to imbalance; RR is oblivious).
func TestClusterRoutingBalance(t *testing.T) {
	deepest := func(p Policy) int {
		cfg := testConfig(p, 11)
		cfg.Classes[0].Arrival = Exponential{Rate: 3500} // saturating
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return m.MaxQueueDepth
	}
	rr := deepest(RoundRobin)
	if jsq := deepest(JoinShortestQueue); jsq > rr {
		t.Errorf("JSQ max depth %d exceeds round-robin's %d", jsq, rr)
	}
	if ll := deepest(LeastLoaded); ll > rr {
		t.Errorf("least-loaded max depth %d exceeds round-robin's %d", ll, rr)
	}
}

// TestClusterSLOAccounting: an impossibly tight SLO yields zero goodput;
// a generous one counts every completion.
func TestClusterSLOAccounting(t *testing.T) {
	cfg := testConfig(RoundRobin, 13)
	cfg.Classes = cfg.Classes[:1]
	cfg.Classes[0].SLONanos = 1 // tighter than any service time
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Good != 0 {
		t.Errorf("1ns SLO admitted %d good completions", m.Good)
	}
	cfg.Classes[0].SLONanos = 0 // unbounded
	m0, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Good != m0.Completed {
		t.Errorf("unbounded SLO: good %d != completed %d", m0.Good, m0.Completed)
	}
}

// TestClusterConfigValidation: broken configs are rejected with errors,
// not simulated.
func TestClusterConfigValidation(t *testing.T) {
	base := testConfig(RoundRobin, 1)
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"no chips", func(c *Config) { c.Chips = 0 }},
		{"no horizon", func(c *Config) { c.HorizonNanos = 0 }},
		{"negative batch", func(c *Config) { c.MaxBatch = -1 }},
		{"negative cap", func(c *Config) { c.QueueCap = -1 }},
		{"no table", func(c *Config) { c.Table = nil }},
		{"no classes", func(c *Config) { c.Classes = nil }},
		{"unnamed class", func(c *Config) { c.Classes[0].Name = "" }},
		{"nil dist", func(c *Config) { c.Classes[0].Arrival = nil }},
		{"bad dist", func(c *Config) { c.Classes[0].Arrival = Exponential{Rate: -1} }},
		{"negative slo", func(c *Config) { c.Classes[0].SLONanos = -5 }},
		{"unknown class", func(c *Config) { c.Classes[0].Name = "nosuch" }},
	}
	for _, tc := range mutations {
		cfg := base
		cfg.Classes = append([]Class(nil), base.Classes...)
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

// TestClusterRetryModeling pins the shed-retry extension: with
// RetryAfterNanos off the metrics are unchanged (the zero value is the
// original semantics); with it on, shed requests re-offer themselves,
// Retried counts the re-offers, the Offered == Admitted + Rejected
// invariant survives, and retries recover traffic a hard shed would have
// dropped. The retried run stays deterministic across repeats.
func TestClusterRetryModeling(t *testing.T) {
	overload := func() Config {
		cfg := testConfig(RoundRobin, 9)
		cfg.QueueCap = 2
		cfg.Classes[0].Arrival = Exponential{Rate: 20000} // far past capacity
		return cfg
	}

	// RetryAfterNanos=0 disables the whole mechanism: byte-identical to a
	// config that never heard of retries, MaxRetries notwithstanding.
	base, err := Run(overload())
	if err != nil {
		t.Fatal(err)
	}
	if base.Retried != 0 {
		t.Fatalf("RetryAfterNanos=0 run retried %d times", base.Retried)
	}
	off := overload()
	off.MaxRetries = 5 // inert without a backoff
	moff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, base) != canonical(t, moff) {
		t.Error("MaxRetries with RetryAfterNanos=0 changed the metrics")
	}

	cfg := overload()
	cfg.RetryAfterNanos = 500_000 // 0.5 ms backoff
	cfg.MaxRetries = 3
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retried == 0 {
		t.Fatal("overloaded retry run took no retries")
	}
	if m.Offered != m.Admitted+m.Rejected {
		t.Errorf("conservation broke: offered %d != admitted %d + rejected %d",
			m.Offered, m.Admitted, m.Rejected)
	}
	if m.Completed != m.Admitted {
		t.Errorf("drain broke: completed %d != admitted %d", m.Completed, m.Admitted)
	}
	if m.Offered != base.Offered {
		t.Errorf("retries changed the offered stream: %d vs %d", m.Offered, base.Offered)
	}
	var classRetried int64
	for _, c := range m.Classes {
		classRetried += c.Retried
	}
	if classRetried != m.Retried {
		t.Errorf("class retries sum to %d, total says %d", classRetried, m.Retried)
	}

	m2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, m) != canonical(t, m2) {
		t.Error("retried run is not deterministic across repeats")
	}
}

// gapSeq is a stub Dist that returns fixed inter-arrival gaps in order. A
// draw past the end fails the test: the stream should have ended.
type gapSeq struct {
	t    *testing.T
	gaps []float64
}

func (d *gapSeq) Sample(*RNG) float64 {
	if len(d.gaps) == 0 {
		d.t.Fatal("arrival stream drew past its last gap instead of ending")
	}
	g := d.gaps[0]
	d.gaps = d.gaps[1:]
	return g
}
func (d *gapSeq) Mean() float64   { return 1 }
func (d *gapSeq) Validate() error { return nil }
func (d *gapSeq) String() string  { return "gapseq" }

// TestClusterHugeGapEndsStream: an inter-arrival past the int64 range of
// nanoseconds ends the class's stream rather than wrapping to a 1-ns gap,
// and a gap that fits int64 but overruns the horizon from a late arrival
// ends it too rather than wrapping from+gap into the past.
func TestClusterHugeGapEndsStream(t *testing.T) {
	run := func(horizon int64, gaps ...float64) *Metrics {
		t.Helper()
		cfg := testConfig(RoundRobin, 1)
		cfg.HorizonNanos = horizon
		cfg.SampleEveryNanos = 0
		cfg.Classes = []Class{{Name: "fast", Arrival: &gapSeq{t: t, gaps: gaps}}}
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := run(1_000_000_000, 1e12, 1e-3, 1e-3, 1e-3); m.Offered != 0 {
		t.Errorf("a 1e12 s first gap must end the stream, got %d offered", m.Offered)
	}
	// 3e9 s lands at 3e18 ns inside the horizon; 7e9 s more is 7e18 ns,
	// which fits int64 but 3e18+7e18 does not.
	if m := run(4_000_000_000_000_000_000, 3e9, 7e9); m.Offered != 1 {
		t.Errorf("a gap past the horizon must end the stream after one arrival, got %d offered", m.Offered)
	}
}
