package experiments

import (
	"fmt"

	"duplo/internal/report"
	"duplo/internal/serving"
)

// The cluster experiment's fixed shape: a small serving fleet, the
// Fig. 13 batch points as the latency table's measured cells, and offered
// loads expressed as fractions of the baseline cluster's batched
// capacity — so the same sweep is meaningful at quick scale and full
// scale (service times change, the saturation story doesn't).
const (
	clusterChips    = 4
	clusterQueueCap = 128
	clusterMaxBatch = 32
	// clusterSLOServiceMult: each class's SLO is this multiple of its
	// baseline batch-8 per-request service time — identical for the
	// Duplo-off and Duplo-on runs so goodput is comparable.
	clusterSLOServiceMult = 10
	// clusterTargetArrivals sizes the horizon so every load point sees
	// about this many offered requests.
	clusterTargetArrivals = 2000
)

// clusterBatches are the latency-table batch points: the Fig. 13 sweep
// (8/16/32, so a warm store serves both experiments from the same cells)
// plus batch 1, so a lone request under light load pays a singleton
// forward pass rather than rounding up to the batch-8 price.
var clusterBatches = []int{1, 8, 16, 32}

// clusterLoads are the offered-load points as fractions of the baseline
// cluster's capacity: comfortable, near-saturation, and past it.
var clusterLoads = []float64{0.5, 0.8, 1.1}

// clusterSetup is everything the DES cells share: the two latency
// tables, the class list, per-class SLOs, and the baseline capacity the
// load points scale from.
type clusterSetup struct {
	base, dup *serving.LatencyTable
	classes   []string
	sloNanos  map[string]int64
	// capacityPerSec is the baseline cluster's batched throughput: with
	// equal class shares, one chip serves a request of class c in
	// s8(c)/8 seconds at full batching, so the fleet's aggregate is
	// chips / mean_c(s8(c)/8).
	capacityPerSec float64
}

// clusterSeed resolves the serving RNG seed (Options.Seed, default 1).
func (r *Runner) clusterSeed() int64 {
	if r.opts.Seed != 0 {
		return r.opts.Seed
	}
	return 1
}

// setupCluster builds the latency tables through the Runner and derives
// the traffic model. Classes whose table points are incomplete (a
// simulation failed) are dropped; latErr carries the cell failures.
func (r *Runner) setupCluster() (*clusterSetup, error) {
	clock := r.opts.config().ClockMHz
	base, dup, latErr := r.ServingLatencies(r.opts.layers(), clusterBatches, clock)
	if base == nil || dup == nil {
		return nil, latErr
	}
	s := &clusterSetup{base: base, dup: dup, sloNanos: make(map[string]int64)}
	for _, net := range base.Classes() {
		if len(base.Points(net)) != len(clusterBatches) || len(dup.Points(net)) != len(clusterBatches) {
			continue // incomplete: a latency cell for this network failed
		}
		s.classes = append(s.classes, net)
	}
	if len(s.classes) == 0 {
		if latErr == nil {
			latErr = fmt.Errorf("experiments: cluster has no serving classes")
		}
		return nil, latErr
	}
	var meanPerReq float64 // seconds per request at full batching, class-averaged
	for _, net := range s.classes {
		s8, err := s.base.ServiceNanos(net, 8)
		if err != nil {
			return nil, err
		}
		s.sloNanos[net] = clusterSLOServiceMult * s8
		meanPerReq += float64(s8) / 8 / 1e9
	}
	meanPerReq /= float64(len(s.classes))
	s.capacityPerSec = float64(clusterChips) / meanPerReq
	return s, latErr
}

// clusterConfig assembles one DES cell: the given routing policy, an
// aggregate Poisson offered load of loadFrac x baseline capacity split
// equally across classes, against the Duplo-off or -on latency table.
func (s *clusterSetup) clusterConfig(policy serving.Policy, loadFrac float64, duploOn bool, seed int64) serving.Config {
	table := s.base
	if duploOn {
		table = s.dup
	}
	rate := loadFrac * s.capacityPerSec
	horizon := int64(clusterTargetArrivals / rate * 1e9)
	classes := make([]serving.Class, len(s.classes))
	for i, net := range s.classes {
		classes[i] = serving.Class{
			Name:     net,
			Arrival:  serving.Exponential{Rate: rate / float64(len(s.classes))},
			SLONanos: s.sloNanos[net],
		}
	}
	return serving.Config{
		Chips:        clusterChips,
		Policy:       policy,
		MaxBatch:     clusterMaxBatch,
		QueueCap:     clusterQueueCap,
		HorizonNanos: horizon,
		Seed:         seed,
		Classes:      classes,
		Table:        table,
	}
}

// Cluster runs the discrete-event cluster serving experiment: offered
// load x routing policy x Duplo off/on, with per-request service times
// from the cycle-accurate per-layer results (through the Runner, so the
// memo/store/predictor tiers all apply). Each row pair compares the
// baseline (B) and Duplo (D) fleets under identical traffic: p50/p95/p99
// request latency, goodput (completions within the class SLO per
// second), rejection rate, time-weighted mean queue depth, and chip
// utilization. The whole table is deterministic: a fixed -seed yields
// byte-identical output at any worker count.
func (r *Runner) Cluster() (*report.Table, error) {
	seed := r.clusterSeed()
	t := report.NewTable(
		fmt.Sprintf("Cluster serving: %d chips, Poisson arrivals, batch<=%d, queue<=%d (seed=%d)",
			clusterChips, clusterMaxBatch, clusterQueueCap, seed),
		"Policy", "Load", "Offered r/s", "Cfg", "p50 ms", "p95 ms", "p99 ms", "Goodput r/s", "Reject%", "MeanQ", "Util")

	setup, latErr := r.setupCluster()
	se := &SweepError{}
	if sweepErr, ok := latErr.(*SweepError); ok {
		se.Cells, se.Errs = sweepErr.Cells, sweepErr.Errs
	} else if latErr != nil {
		se.Cells = append(se.Cells, "latency-table")
		se.Errs = append(se.Errs, latErr)
	}
	if setup == nil {
		for _, policy := range serving.Policies() {
			for range clusterLoads {
				t.AddRowCells([]string{policy.String(), errCell, errCell, "B", errCell, errCell, errCell, errCell, errCell, errCell, errCell})
				t.AddRowCells([]string{"", "", "", "D", errCell, errCell, errCell, errCell, errCell, errCell, errCell})
			}
		}
		return t, se
	}

	for _, policy := range serving.Policies() {
		for _, load := range clusterLoads {
			for d, tag := range []string{"B", "D"} {
				cfg := setup.clusterConfig(policy, load, d == 1, seed)
				m, err := serving.Run(cfg)
				if err != nil {
					se.Cells = append(se.Cells, fmt.Sprintf("%s/%.1fx/%s", policy, load, tag))
					se.Errs = append(se.Errs, err)
					lead := []string{policy.String(), fmt.Sprintf("%.1fx", load), fmt.Sprintf("%.1f", load*setup.capacityPerSec)}
					if d == 1 {
						lead = []string{"", "", ""}
					}
					t.AddRowCells(append(lead, tag, errCell, errCell, errCell, errCell, errCell, errCell, errCell))
					continue
				}
				t.AddRowCells(clusterRow(policy, load, tag, d == 1, setup, m))
				r.progress("cluster %s load=%.1fx %s done (%d events)", policy, load, tag, m.Events)
			}
		}
	}
	t.Note = fmt.Sprintf("classes: %v; SLO = %dx baseline batch-8 service; B = Duplo off, D = Duplo on (1024-entry LHB); loads scale the baseline fleet's batched capacity (%.1f r/s)",
		setup.classes, clusterSLOServiceMult, setup.capacityPerSec)
	if len(se.Errs) == 0 {
		return t, nil
	}
	return t, se
}

// clusterRow renders one finished DES cell. Each latency percentile
// column is the largest of the per-class percentiles (p50 the largest
// class p50, and so on): the worst class's figure, the conservative
// single number for an SLO conversation.
func clusterRow(policy serving.Policy, load float64, tag string, duploOn bool, setup *clusterSetup, m *serving.Metrics) []string {
	var p50, p95, p99 int64
	for _, c := range m.Classes {
		if c.P50Nanos > p50 {
			p50 = c.P50Nanos
		}
		if c.P95Nanos > p95 {
			p95 = c.P95Nanos
		}
		if c.P99Nanos > p99 {
			p99 = c.P99Nanos
		}
	}
	rejectPct := 0.0
	if m.Offered > 0 {
		rejectPct = 100 * float64(m.Rejected) / float64(m.Offered)
	}
	lead := []string{policy.String(), fmt.Sprintf("%.1fx", load), fmt.Sprintf("%.1f", load*setup.capacityPerSec)}
	if duploOn {
		lead = []string{"", "", ""}
	}
	return append(lead,
		tag,
		fmt.Sprintf("%.3f", serving.Ms(p50)),
		fmt.Sprintf("%.3f", serving.Ms(p95)),
		fmt.Sprintf("%.3f", serving.Ms(p99)),
		fmt.Sprintf("%.1f", m.GoodputPerSec),
		fmt.Sprintf("%.1f", rejectPct),
		fmt.Sprintf("%.1f", m.MeanQueueDepth),
		fmt.Sprintf("%.2f", m.MeanUtilization),
	)
}

// ClusterCell runs one cluster cell in detail — queue-depth sampling and
// batch-span recording on — for the observability exports (duploexp
// -cluster-timeline/-cluster-queues). The cell is the JSQ policy at the
// given load fraction, Duplo on or off, over the same latency tables the
// Cluster table uses (shared runner cache: a preceding -exp cluster pays
// for every simulation).
func (r *Runner) ClusterCell(loadFrac float64, duploOn bool) (*serving.Metrics, error) {
	setup, err := r.setupCluster()
	if setup == nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	cfg := setup.clusterConfig(serving.JoinShortestQueue, loadFrac, duploOn, r.clusterSeed())
	cfg.SampleEveryNanos = cfg.HorizonNanos / 200
	if cfg.SampleEveryNanos == 0 {
		cfg.SampleEveryNanos = 1
	}
	cfg.RecordSpans = true
	return serving.Run(cfg)
}
