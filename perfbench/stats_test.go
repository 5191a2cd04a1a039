package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// 1000 samples: p99 is the 990th, leaving ten above it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values from Python: statistics.median and
	// statistics.quantiles(v, n=4).
	for _, tc := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
	} {
		if got := median(tc.v); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.v, got, tc.med)
		}
		q1, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "client.run", parent: -1, start: 0, end: 100 * ms},
		// Two concurrent children overlapping on [20,30), one running past
		// the parent's end (clipped), one wholly inside another.
		{name: "http.submit", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "http.poll", parent: 0, start: 20 * ms, end: 40 * ms},
		{name: "http.poll", parent: 0, start: 25 * ms, end: 35 * ms},
		{name: "http.poll", parent: 0, start: 90 * ms, end: 120 * ms},
		// A grandchild counts against its own parent only.
		{name: "server.poll", parent: 2, start: 22 * ms, end: 32 * ms},
	}
	got := selfTimes(spans)
	// client.run: 100 - |[10,40) ∪ [90,100)| = 100 - 40 = 60.
	// http: submit 20 + poll (20-10) + poll 10 + poll 30 = 70.
	want := map[string]time.Duration{"client": 60 * ms, "http": 70 * ms, "server": 10 * ms}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin("store.get", 0, -1, 1)
	r.end(id)
	if id != -1 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
