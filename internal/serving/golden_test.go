package serving

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cluster.golden")

// goldenConfigs is the DES golden's matrix: every policy, with and
// without a queue cap, with and without shed retries, each run with
// queue sampling and batch spans on over three classes that draw from
// the three arrival distributions. The load is past what the cap holds
// in bursts, so the capped configs shed and the retrying ones re-offer.
func goldenConfigs() []Config {
	tbl := testTable()
	tbl.Set("mid", 1, 1_000_000)
	tbl.Set("mid", 8, 2_500_000)
	tbl.Set("mid", 32, 4_000_000)
	var cfgs []Config
	for _, policy := range Policies() {
		for _, queueCap := range []int{0, 4} {
			for _, retry := range []int64{0, 300_000} {
				cfgs = append(cfgs, Config{
					Chips:            4,
					Policy:           policy,
					MaxBatch:         8,
					QueueCap:         queueCap,
					RetryAfterNanos:  retry,
					MaxRetries:       2,
					HorizonNanos:     200_000_000, // 200 ms
					Seed:             int64(len(cfgs) + 1),
					Table:            tbl,
					SampleEveryNanos: 10_000_000,
					RecordSpans:      true,
					Classes: []Class{
						{Name: "fast", Arrival: Exponential{Rate: 6000}, SLONanos: 5_000_000},
						{Name: "mid", Arrival: Gamma{Shape: 0.5, Rate: 1000}, SLONanos: 10_000_000},
						{Name: "slow", Arrival: Weibull{Shape: 0.7, Scale: 0.002}, SLONanos: 20_000_000},
					},
				})
			}
		}
	}
	return cfgs
}

// TestClusterGolden pins the DES's output across commits: for each
// golden config, the Summary line, the depth integral, the per-class
// counts and percentiles in clear text, and a SHA-256 of the full
// canonical rendering (queue-depth series and batch timeline included).
// Re-record with `go test ./internal/serving -run TestClusterGolden
// -update` after an intended change to simulated traffic.
func TestClusterGolden(t *testing.T) {
	var b bytes.Buffer
	for _, cfg := range goldenConfigs() {
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== policy=%s cap=%d retry=%d seed=%d\n", cfg.Policy, cfg.QueueCap, cfg.RetryAfterNanos, cfg.Seed)
		fmt.Fprintln(&b, m.Summary())
		fmt.Fprintf(&b, "makespan=%d mean_depth=%v max_depth=%d samples=%d spans=%d\n",
			m.MakespanNanos, m.MeanQueueDepth, m.MaxQueueDepth, len(m.QueueSamples), len(m.BatchSpans))
		for _, c := range m.Classes {
			fmt.Fprintf(&b, "%s offered=%d admitted=%d rejected=%d retried=%d completed=%d good=%d p50=%d p95=%d p99=%d max=%d mean=%d\n",
				c.Name, c.Offered, c.Admitted, c.Rejected, c.Retried, c.Completed, c.Good,
				c.P50Nanos, c.P95Nanos, c.P99Nanos, c.MaxNanos, c.MeanNanos)
		}
		fmt.Fprintf(&b, "sha256=%x\n", sha256.Sum256([]byte(canonical(t, m))))
	}

	path := filepath.Join("testdata", "cluster.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serving -run TestClusterGolden -update` to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("DES output drifted from %s:\n--- got\n%s--- want\n%s", path, b.Bytes(), want)
	}
}
