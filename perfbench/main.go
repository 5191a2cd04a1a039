// Command perfbench is the repository's benchmark. It runs one workload
// through the public APIs of the simulator, the experiments runner, the
// result store, the predictor, the duploserved handler and the serving
// DES; checks the outputs; and prints one JSON result line last on
// standard output. README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload regen-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"duplo/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.runs", "count"},
	{"sim.host_s.base", "s"},
	{"sim.host_s.duplo", "s"},
	{"sim.cycles_per_s.base", "1/s"},
	{"sim.cycles_per_s.duplo", "1/s"},
	{"core.duplo_cost_ratio", "ratio"},
	{"core.lhb_lookups", "count"},
	{"core.lhb_hit_rate", "ratio"},
	{"runner.fig9_s", "s"},
	{"runner.fig10_s", "s"},
	{"runner.execs", "count"},
	{"runner.mem_hits", "count"},
	{"runner.store_hits", "count"},
	{"runner.predicted", "count"},
	{"runner.dispatch_us", "us"},
	{"store.get_us.p50", "us"},
	{"store.get_us.p99", "us"},
	{"store.put_us.p50", "us"},
	{"store.put_us.p99", "us"},
	{"server.submit_us", "us"},
	{"server.poll_us", "us"},
	{"server.statsz_us", "us"},
	{"server.sweep_ms", "ms"},
	{"server.jobs_in_map", "count"},
	{"server.transport_share", "ratio"},
	{"client.run_p50_ms", "ms"},
	{"client.run_p99_ms", "ms"},
	{"client.sweep_p50_ms", "ms"},
	{"client.sweep_p99_ms", "ms"},
	{"predictor.load_ms", "ms"},
	{"predictor.predict_us", "us"},
	{"serving.events", "count"},
	{"serving.events_per_s", "1/s"},
	{"serving.run_s", "s"},
	{"self_s.bench", "s"},
	{"self_s.runner", "s"},
	{"self_s.sim", "s"},
	{"self_s.store", "s"},
	{"self_s.server", "s"},
	{"self_s.client", "s"},
	{"self_s.http", "s"},
	{"self_s.predictor", "s"},
	{"self_s.serving", "s"},
	{"trace.spans", "count"},
	{"trace.overhead.wall_pct", "%"},
	{"trace.overhead.work_pct", "%"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"regen-cold":        runRegenCold,
	"serve-warm":        runServeWarm,
	"cluster-predicted": runClusterPredicted,
}

// env is what a workload function gets: its settings, a scratch directory
// removed at exit, the reference digests, the span recorder (nil when
// untraced) and the result it fills in.
type env struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string
	layers  []workload.Layer
	ref     reference
	rec     *recorder
	res     *result
}

// result accumulates samples per metric plus the operation accounting.
type result struct {
	samples   map[string][]float64
	attempted int
	failed    int
	problems  []string
	extra     map[string]float64 // informational numbers for the report only
}

func newResult() *result {
	return &result{samples: make(map[string][]float64), extra: make(map[string]float64)}
}

// add appends samples to a metric.
func (r *result) add(name string, v ...float64) { r.samples[name] = append(r.samples[name], v...) }

// check counts one checked operation, failing it (with the reason) when
// ok is false.
func (r *result) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// problem records a failed correctness check that is not an operation.
func (r *result) problem(format string, args ...interface{}) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// endSetup marks the end of a workload's set-up. It notes set-up's peak
// resident set in the report, returns set-up's garbage to the OS and
// resets the kernel's peak-RSS mark (clear_refs 5, Linux 4.0 on), so
// peak_rss_mb describes the measured phase. Where the reset fails, the
// peak covers set-up too.
func (e *env) endSetup() {
	e.res.extra["setup_peak_rss_mb"] = peakRSSMB()
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// peakRSSMB is the peak resident set size since endSetup: VmHWM from
// /proc/self/status, or the whole process's ru_maxrss where that is
// missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the CPU time the hypervisor has taken from this machine's
// CPUs, summed over CPUs (the steal column of /proc/stat; 0 where absent).
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

func main() {
	name := flag.String("workload", "", "workload: regen-cold | serve-warm | cluster-predicted | all")
	seed := flag.Int64("seed", 1, "workload seed (default 1; seed 2 is held out to confirm claims)")
	seconds := flag.Int("seconds", 15, "how long the measured phase runs")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Perfetto timeline")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch stores, timelines and result reports")
	commit := flag.String("commit", "unknown", "commit the benchmark was built from (stamped on the report)")
	record := flag.Bool("record", false, "re-record "+referencePath+" and exit")
	flag.Parse()

	if *name == "all" {
		if err := runAll(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *traced == 1, *out, *commit, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own process (so each reports its own
// peak RSS), with this invocation's other flags, and fails if any fails.
func runAll() error {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var failed []string
	for _, n := range names {
		args := []string{"-workload", n}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, n)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

func run(name string, seed int64, seconds int, traced bool, out, commit string, record bool) error {
	layers, err := benchLayers()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if record {
		return recordReference(layers, dir)
	}
	drive, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (regen-cold | serve-warm | cluster-predicted)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	e := &env{name: name, seed: seed, seconds: time.Duration(seconds) * time.Second, traced: traced,
		dir: dir, layers: layers, ref: ref, res: newResult()}
	if traced {
		e.rec = newRecorder()
	}
	cpu0, steal0 := processCPU(), hostSteal()
	if err := drive(e); err != nil {
		return err
	}
	e.res.add("peak_rss_mb", peakRSSMB())
	// Where the host lends its CPUs to other guests, a slow run shows as
	// steal: reported beside the metrics so an outlier can be explained.
	e.res.extra["process_cpu_s"] = (processCPU() - cpu0).Seconds()
	e.res.extra["host_steal_s"] = (hostSteal() - steal0).Seconds()

	defs := endToEnd
	if traced {
		defs = perLayer
		spans := e.rec.spans
		for layer, d := range selfTimes(spans) {
			e.res.add("self_s."+layer, d.Seconds())
		}
		e.res.add("trace.spans", float64(len(spans)))
		tl := filepath.Join(out, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
		if err := writeTimeline(tl, "perfbench "+name, spans); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: timeline written to", tl)
	}
	return emit(e, defs, out, commit, seconds)
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricReport is one metric of the stamped report: the reported value
// (the median of the samples) with the sample count and quartiles.
type metricReport struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// emit writes the stamped report file and a readable summary to standard
// error, then prints the result line last on standard output.
func emit(e *env, defs []metricDef, out, commit string, seconds int) error {
	line := map[string]metricOut{}
	report := map[string]metricReport{}
	var summary strings.Builder
	for _, d := range defs {
		s := e.res.samples[d.name]
		v := median(s)
		q1, q3 := quartiles(s)
		line[d.name] = metricOut{Value: v, Unit: d.unit}
		report[d.name] = metricReport{Value: v, Unit: d.unit, N: len(s), Q1: q1, Q3: q3}
		fmt.Fprintf(&summary, "  %-26s %14.6g %-6s n=%-5d q1=%.6g q3=%.6g\n", d.name, v, d.unit, len(s), q1, q3)
	}
	extras := make([]string, 0, len(e.res.extra))
	for k := range e.res.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(&summary, "  %-26s %14.6g (informational)\n", k, e.res.extra[k])
	}
	for _, p := range e.res.problems {
		fmt.Fprintf(&summary, "  FAIL: %s\n", p)
	}

	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	stamp := map[string]interface{}{
		"workload": e.name, "seed": e.seed, "seconds": seconds, "trace": e.traced,
		"commit": commit, "date": time.Now().UTC().Format(time.RFC3339),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"correct": e.res.correct(), "attempted": e.res.attempted, "failed": e.res.failed,
		"problems": e.res.problems, "metrics": report, "extra": e.res.extra,
	}
	b, err := json.MarshalIndent(stamp, "", "  ")
	if err != nil {
		return err
	}
	rdir := filepath.Join(out, "results")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	rpath := filepath.Join(rdir, fmt.Sprintf("%s-seed%d-trace%v-%d.json", e.name, e.seed, e.traced, time.Now().UnixNano()))
	if err := os.WriteFile(rpath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d trace=%v commit=%s %s %s/%s nproc=%d cpu=%q\n%s  report: %s\n",
		e.name, e.seed, e.traced, commit, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cpu,
		summary.String(), rpath)

	lb, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{e.res.correct(), e.res.attempted, e.res.failed, line})
	if err != nil {
		return err
	}
	fmt.Println(string(lb))
	if !e.res.correct() {
		return fmt.Errorf("%s: correctness check failed", e.name)
	}
	return nil
}
