// Benchmark harness: one testing.B per table/figure of the paper's
// evaluation. Each bench regenerates its experiment at reduced scale (the
// QuickOptions CTA cap) and reports the headline number the paper quotes as
// a custom metric, so `go test -bench=.` produces the whole result series.
//
// For the full-scale tables, run `go run ./cmd/duploexp -exp all`.
package experiments_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	duplocore "duplo/internal/core"
	"duplo/internal/costmodel"
	"duplo/internal/energy"
	"duplo/internal/experiments"
	"duplo/internal/memmodel"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// benchLayers is a small representative subset: one duplication-rich
// stride-1 layer, one strided layer, one GAN transposed layer.
func benchLayers(tb testing.TB) []workload.Layer {
	tb.Helper()
	var out []workload.Layer
	for _, id := range [][2]string{{"ResNet", "C2"}, {"ResNet", "C3"}, {"GAN", "TC4"}} {
		l, err := workload.Find(id[0], id[1])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

func benchRunner(tb testing.TB) *experiments.Runner {
	opts := experiments.QuickOptions()
	opts.Layers = benchLayers(tb)
	return experiments.NewRunner(opts)
}

// BenchmarkTable1Workloads regenerates Table I (layer configurations).
func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if !strings.Contains(t.String(), "YOLO") {
			b.Fatal("table incomplete")
		}
	}
}

// BenchmarkTable2Workflow regenerates the Table II LHB workflow example.
func BenchmarkTable2Workflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(t.String(), "Entry replacement") {
			b.Fatal("workflow incomplete")
		}
	}
}

// BenchmarkFig2ConvMethods regenerates the Fig. 2 method-speedup series and
// reports the GEMM_TC gmean (paper: 25.7x).
func BenchmarkFig2ConvMethods(b *testing.B) {
	d := costmodel.RTX2080Ti()
	var last float64
	for i := 0; i < b.N; i++ {
		prod, n := 1.0, 0
		for _, l := range workload.AllLayers() {
			s := costmodel.Speedup(d, memmodel.GEMMTensorCore, l.GemmParams())
			if s > 0 {
				prod *= s
				n++
			}
		}
		last = math.Pow(prod, 1/float64(n))
	}
	b.ReportMetric(last, "gemmTC_speedup_x")
}

// BenchmarkFig3MemoryUsage regenerates the Fig. 3 memory-usage series and
// reports the GEMM mean (paper: 9.7x).
func BenchmarkFig3MemoryUsage(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		s, n := 0.0, 0
		for _, l := range workload.AllLayers() {
			u := memmodel.RelativeUsage(memmodel.GEMM, l.GemmParams())
			if u > 0 {
				s += u
				n++
			}
		}
		last = s / float64(n)
	}
	b.ReportMetric(last, "gemm_mem_usage_x")
}

// BenchmarkFig9LHBSize regenerates the Fig. 9 sweep on the bench subset and
// reports the oracle gmean improvement (paper: +25.9%).
func BenchmarkFig9LHBSize(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		t, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		metric = lastGmeanPct(b, t.String())
	}
	b.ReportMetric(metric, "oracle_improvement_%")
}

// BenchmarkFig10HitRate regenerates the Fig. 10 hit-rate sweep and reports
// the 1024-entry mean hit rate (paper: ~70-76%).
func BenchmarkFig10HitRate(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		if _, err := r.Fig10(); err != nil {
			b.Fatal(err)
		}
		l := benchLayers(b)[0]
		res, err := r.Duplo(l, experiments.DefaultLHB)
		if err != nil {
			b.Fatal(err)
		}
		metric = 100 * res.LHBHitRate()
	}
	b.ReportMetric(metric, "hit_rate_%")
}

// BenchmarkFig11MemBreakdown regenerates the Fig. 11 service breakdown and
// reports the DRAM traffic delta (paper: -26.6%).
func BenchmarkFig11MemBreakdown(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		if _, err := r.Fig11(); err != nil {
			b.Fatal(err)
		}
		l := benchLayers(b)[0]
		base, err := r.Baseline(l)
		if err != nil {
			b.Fatal(err)
		}
		dup, err := r.Duplo(l, experiments.DefaultLHB)
		if err != nil {
			b.Fatal(err)
		}
		metric = 100 * (float64(dup.DRAMLines)/float64(base.DRAMLines) - 1)
	}
	b.ReportMetric(metric, "dram_delta_%")
}

// BenchmarkFig12Associativity regenerates the Fig. 12 associativity sweep.
func BenchmarkFig12Associativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		t, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(t.String(), "8-way") {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkFig13BatchSize regenerates the Fig. 13 batch sweep on one layer.
func BenchmarkFig13BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiments.QuickOptions()
		opts.Layers = benchLayers(b)[:1]
		r := experiments.NewRunner(opts)
		t, err := r.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(t.String(), "Batch 32") {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkFig14Network regenerates the network-level comparison on a
// reduced network (first two ResNet layers) and reports the inference
// reduction.
func BenchmarkFig14Network(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		opts := experiments.QuickOptions()
		r := experiments.NewRunner(opts)
		layers := workload.ResNet[1:3]
		baseK, dupK := 0.0, 0.0
		cfg := sim.TitanVConfig()
		cfg.MaxCTAs = opts.MaxCTAs
		cfg.SimSMs = opts.SimSMs
		for _, l := range layers {
			k, err := experiments.LayerKernel(l)
			if err != nil {
				b.Fatal(err)
			}
			base, err := r.Run(k, cfg)
			if err != nil {
				b.Fatal(err)
			}
			dcfg := cfg
			dcfg.Duplo = true
			dcfg.DetectCfg.LHB = experiments.DefaultLHB
			dup, err := r.Run(k, dcfg)
			if err != nil {
				b.Fatal(err)
			}
			baseK += float64(base.Cycles)
			dupK += float64(dup.Cycles)
		}
		metric = 100 * (1 - dupK/baseK)
	}
	b.ReportMetric(metric, "inference_reduction_%")
}

// BenchmarkEnergyArea regenerates the §V-H energy/area comparison and
// reports the on-chip saving of the first bench layer (paper avg: 34.1%).
func BenchmarkEnergyArea(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		if _, err := r.EnergyArea(); err != nil {
			b.Fatal(err)
		}
		l := benchLayers(b)[0]
		base, err := r.Baseline(l)
		if err != nil {
			b.Fatal(err)
		}
		dup, err := r.Duplo(l, experiments.DefaultLHB)
		if err != nil {
			b.Fatal(err)
		}
		metric = 100 * energy.OnChipSaving(energy.Default12nm(), base, dup)
	}
	b.ReportMetric(metric, "onchip_energy_saving_%")
}

// BenchmarkAblationEviction regenerates the §V-C eviction-policy study.
func BenchmarkAblationEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		if _, err := r.AblationEviction(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSharedMem regenerates the §II-C shared-memory variant
// study on one layer.
func BenchmarkAblationSharedMem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiments.QuickOptions()
		opts.Layers = benchLayers(b)[:1]
		r := experiments.NewRunner(opts)
		if _, err := r.AblationSharedMem(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectionUnitAccess measures the raw detection-unit lookup path
// (ID generation + LHB probe + rename), the per-load hardware operation.
func BenchmarkDetectionUnitAccess(b *testing.B) {
	l, _ := workload.Find("ResNet", "C2")
	k, err := sim.NewConvKernel(l.FullName(), l.GemmParams())
	if err != nil {
		b.Fatal(err)
	}
	du, err := duplocore.NewDetectionUnit(duplocore.DefaultDetectionUnitConfig(), 64, 32)
	if err != nil {
		b.Fatal(err)
	}
	if err := du.Program(*k.Conv, k.Layout); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := k.Layout.Addr(i%k.M, (i*16)%k.K)
		res, seq := du.Access(i%64, i%32, addr, 0)
		if i%7 == 0 {
			du.Retire(addr, seq)
		}
		_ = res
	}
}

// lastGmeanPct extracts the last percentage on the Gmean row (the oracle
// column).
func lastGmeanPct(tb testing.TB, table string) float64 {
	tb.Helper()
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "Gmean") {
			fields := strings.Fields(line)
			last := fields[len(fields)-1]
			last = strings.TrimSuffix(strings.TrimPrefix(last, "+"), "%")
			v, err := strconv.ParseFloat(last, 64)
			if err != nil {
				tb.Fatalf("parse %q: %v", last, err)
			}
			return v
		}
	}
	tb.Fatal("no Gmean row")
	return 0
}
