package serving

import "testing"

// BenchmarkClusterEventLoop measures raw DES throughput (events/sec) on a
// synthetic latency table — no cycle simulation, just the heap, routing,
// batching, and metrics machinery. scripts/benchcheck.sh gates its
// allocs/op; EXPERIMENTS.md reports its events/s over repeated samples.
func BenchmarkClusterEventLoop(b *testing.B) {
	cfg := Config{
		Chips:        16,
		Policy:       JoinShortestQueue,
		MaxBatch:     8,
		QueueCap:     256,
		HorizonNanos: 10_000_000_000, // 10 s of simulated traffic
		Seed:         1,
		Table:        testTable(),
		Classes: []Class{
			{Name: "fast", Arrival: Exponential{Rate: 20000}, SLONanos: 20_000_000},
			{Name: "slow", Arrival: Exponential{Rate: 1000}, SLONanos: 50_000_000},
		},
	}
	var events int64
	var elapsed float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += m.Events
	}
	b.StopTimer()
	elapsed = b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed, "events/s")
	}
}
