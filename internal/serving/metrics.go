package serving

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"

	"duplo/internal/report"
	"duplo/internal/trace"
)

// ClassMetrics accumulates one request class's traffic accounting.
// Latencies are request sojourn times: completion minus arrival,
// queueing and batching delay included.
type ClassMetrics struct {
	Name string `json:"name"`

	Offered  int64 `json:"offered"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// Retried counts backed-off re-offers after queue-full sheds
	// (Config.RetryAfterNanos). Offered == Admitted + Rejected regardless:
	// a retry re-offers the same request, it is not new traffic.
	Retried   int64 `json:"retried"`
	Completed int64 `json:"completed"`
	// Good counts completions within the class SLO (all of them when the
	// SLO is 0).
	Good int64 `json:"good"`

	// Latency percentiles in nanoseconds (nearest-rank over completed
	// requests; 0 when nothing completed).
	P50Nanos  int64 `json:"p50_nanos"`
	P95Nanos  int64 `json:"p95_nanos"`
	P99Nanos  int64 `json:"p99_nanos"`
	MaxNanos  int64 `json:"max_nanos"`
	MeanNanos int64 `json:"mean_nanos"`

	latencies []int64
}

// QueueSample is one queue-depth observation (in-service requests
// included) — the cluster-level time series.
type QueueSample struct {
	AtNanos int64 `json:"at_nanos"`
	Depths  []int `json:"depths"`
	Total   int   `json:"total"`
}

// BatchSpan is one formed batch's service interval on one chip.
type BatchSpan struct {
	Chip       int    `json:"chip"`
	Class      string `json:"class"`
	Size       int    `json:"size"`
	StartNanos int64  `json:"start_nanos"`
	DurNanos   int64  `json:"dur_nanos"`
}

// Metrics is one cluster simulation's complete result.
type Metrics struct {
	Chips        int    `json:"chips"`
	Policy       string `json:"policy"`
	Seed         int64  `json:"seed"`
	HorizonNanos int64  `json:"horizon_nanos"`
	// MakespanNanos is when the last admitted request completed (>= the
	// horizon whenever anything was still in flight at it).
	MakespanNanos int64 `json:"makespan_nanos"`

	// Events counts processed DES events (arrivals, retried offers,
	// completions and samples) — the event-loop throughput denominator
	// for benches.
	Events int64 `json:"events"`
	// BatchedRequests sums formed batch sizes; BatchedRequests/Batches
	// ratios above 1 mean batching engaged.
	BatchedRequests int64 `json:"batched_requests"`
	Batches         int64 `json:"batches"`

	Offered   int64 `json:"offered"`
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Retried   int64 `json:"retried"`
	Completed int64 `json:"completed"`
	Good      int64 `json:"good"`

	// OfferedPerSec and GoodputPerSec are rates over the horizon (not the
	// makespan: the horizon is the window traffic was offered in).
	OfferedPerSec float64 `json:"offered_per_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`

	// MeanUtilization averages busy-time fractions over chips and the
	// makespan.
	MeanUtilization float64 `json:"mean_utilization"`

	// MeanQueueDepth is the time-weighted mean of in-system requests
	// (queued + in service) over the makespan; MaxQueueDepth is the
	// deepest any single chip's wait queue got.
	MeanQueueDepth float64 `json:"mean_queue_depth"`
	MaxQueueDepth  int     `json:"max_queue_depth"`

	Classes      []ClassMetrics `json:"classes"`
	QueueSamples []QueueSample  `json:"queue_samples,omitempty"`
	// BatchSpans is the per-batch activity record (Config.RecordSpans).
	BatchSpans []BatchSpan `json:"batch_spans,omitempty"`

	chipBusyNanos []int64
}

// latencyPool recycles the per-class latency sample slices between runs.
// A run appends one sample per completed request and finish discards the
// slice after folding it into percentiles; without the pool every run
// regrows that capacity from scratch (sweeps and benches run thousands of
// configs back to back).
var latencyPool = sync.Pool{New: func() interface{} { return new([]int64) }}

func newMetrics(cfg Config) *Metrics {
	m := &Metrics{
		Chips:        cfg.Chips,
		Policy:       cfg.Policy.String(),
		Seed:         cfg.Seed,
		HorizonNanos: cfg.HorizonNanos,
		Classes:      make([]ClassMetrics, len(cfg.Classes)),
	}
	for i, cl := range cfg.Classes {
		m.Classes[i].Name = cl.Name
		m.Classes[i].latencies = (*latencyPool.Get().(*[]int64))[:0]
	}
	return m
}

// finish folds the per-class latency samples into percentiles and the
// cluster totals. All reductions run in class/chip index order, so the
// finished metrics are a pure function of the config.
func (m *Metrics) finish(makespan int64) {
	if makespan < m.HorizonNanos {
		makespan = m.HorizonNanos
	}
	m.MakespanNanos = makespan
	for i := range m.Classes {
		c := &m.Classes[i]
		m.Offered += c.Offered
		m.Admitted += c.Admitted
		m.Rejected += c.Rejected
		m.Retried += c.Retried
		m.Completed += c.Completed
		m.Good += c.Good
		if len(c.latencies) > 0 {
			c.P50Nanos, c.P95Nanos, c.P99Nanos, c.MaxNanos, c.MeanNanos = latencyStats(c.latencies)
		}
		if c.latencies != nil {
			buf := c.latencies[:0]
			latencyPool.Put(&buf)
			c.latencies = nil
		}
	}
	horizonSec := float64(m.HorizonNanos) / 1e9
	m.OfferedPerSec = float64(m.Offered) / horizonSec
	m.GoodputPerSec = float64(m.Good) / horizonSec
	var busy float64
	for _, b := range m.chipBusyNanos {
		busy += float64(b)
	}
	if m.Chips > 0 && makespan > 0 {
		m.MeanUtilization = busy / (float64(makespan) * float64(m.Chips))
	}
}

// latencyStats reduces one class's latency samples (n > 0) to its
// nearest-rank p50, p95 and p99, its max and its mean, reordering lat.
// The ranks come from selection, not a sort: after each select lat[k]
// holds what the sorted slice would hold there and nothing after it is
// smaller, so the next, higher rank lies in lat[k:] and the max in
// lat[k99:]. The int64 sum does not depend on order.
func latencyStats(lat []int64) (p50, p95, p99, mx, mean int64) {
	n := len(lat)
	depth := 2 * bits.Len(uint(n))
	k50, k95, k99 := nearestRank(0.50, n), nearestRank(0.95, n), nearestRank(0.99, n)
	selectNth(lat, k50, depth)
	p50 = lat[k50]
	selectNth(lat[k50:], k95-k50, depth)
	p95 = lat[k95]
	selectNth(lat[k95:], k99-k95, depth)
	p99 = lat[k99]
	mx = slices.Max(lat[k99:])
	var sum int64
	for _, v := range lat {
		sum += v
	}
	return p50, p95, p99, mx, sum / int64(n)
}

// nearestRank is the 0-based index of the nearest-rank q-quantile among
// n > 0 ascending values.
func nearestRank(q float64, n int) int {
	idx := int(q*float64(n)+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// selectNth reorders a so that a[k] holds the value the ascending sort of
// a would hold there, with nothing before it larger and nothing after it
// smaller: quickselect over median-of-three Hoare partitions. After depth
// partitions it sorts the range still open instead (introselect), so
// adversarial input costs O(n log n), not O(n²).
func selectNth(a []int64, k, depth int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		if depth == 0 || hi-lo < 16 {
			slices.Sort(a[lo : hi+1])
			return
		}
		depth--
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
			if x > y {
				y = x
			}
		}
		// Hoare partition around the median value y: afterwards
		// a[lo..j] <= y, a[i..hi] >= y and a[j+1..i-1] == y.
		i, j := lo, hi
		for i <= j {
			for a[i] < y {
				i++
			}
			for a[j] > y {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Ms converts nanoseconds to milliseconds for rendering.
func Ms(nanos int64) float64 { return float64(nanos) / 1e6 }

// QueueDepthTable renders the queue-depth time series as a report.Table
// (CSV-exportable via report.Table.CSV): one row per sample, one column
// per chip plus the total.
func (m *Metrics) QueueDepthTable() *report.Table {
	headers := []string{"t_ms"}
	for i := 0; i < m.Chips; i++ {
		headers = append(headers, fmt.Sprintf("chip%d", i))
	}
	headers = append(headers, "total")
	t := report.NewTable(fmt.Sprintf("Queue depth over time (%d chips, policy=%s, seed=%d)", m.Chips, m.Policy, m.Seed), headers...)
	for _, s := range m.QueueSamples {
		row := []string{fmt.Sprintf("%.3f", Ms(s.AtNanos))}
		for _, d := range s.Depths {
			row = append(row, fmt.Sprint(d))
		}
		row = append(row, fmt.Sprint(s.Total))
		t.AddRowCells(row)
	}
	return t
}

// WriteTimeline exports the cluster run as a Chrome trace-event /
// Perfetto timeline through the shared internal/trace span vocabulary:
// one track per chip carrying its batch spans (Config.RecordSpans), plus
// queue-depth counter tracks from the sampled series
// (Config.SampleEveryNanos). Timestamps are ns/1000 of simulated time,
// so 1 us of trace time = 1 us simulated; only relative durations are
// meaningful.
func (m *Metrics) WriteTimeline(w io.Writer) error {
	tl := trace.NewTimeline("duplo-serving")
	tracks := make([]int, m.Chips)
	for i := range tracks {
		tracks[i] = tl.Track(fmt.Sprintf("chip %d", i))
	}
	for _, b := range m.BatchSpans {
		tl.SpanArg(tracks[b.Chip], fmt.Sprintf("%s x%d", b.Class, b.Size),
			b.StartNanos/1000, b.DurNanos/1000, "batch_size", int64(b.Size))
	}
	for _, s := range m.QueueSamples {
		ts := s.AtNanos / 1000
		for i, d := range s.Depths {
			tl.Counter(fmt.Sprintf("chip%d depth", i), ts, float64(d))
		}
		tl.Counter("total depth", ts, float64(s.Total))
	}
	return tl.Write(w)
}

// Summary renders the cluster totals as one deterministic line (the
// determinism tests compare these byte-for-byte).
func (m *Metrics) Summary() string {
	return fmt.Sprintf("chips=%d policy=%s seed=%d offered=%d admitted=%d rejected=%d retried=%d completed=%d good=%d goodput=%.3f/s util=%.4f events=%d batches=%d batched=%d",
		m.Chips, m.Policy, m.Seed, m.Offered, m.Admitted, m.Rejected, m.Retried, m.Completed, m.Good,
		m.GoodputPerSec, m.MeanUtilization, m.Events, m.Batches, m.BatchedRequests)
}
