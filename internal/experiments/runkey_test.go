package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"duplo/internal/sim"
	"duplo/internal/trace"
	"duplo/internal/workload"
)

// keyLeaves lists the dotted paths of every exported leaf field of t,
// recursing into structs and pointers to structs.
func keyLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, keyLeaves(ft, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// mutateLeaf changes the field at path under v (an addressable struct) to
// another value of its type.
func mutateLeaf(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		v = v.FieldByName(name)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Interface:
		v.Set(reflect.ValueOf(trace.NewCollector(trace.Meta{SMs: 1})))
	default:
		t.Fatalf("%s: no mutation for a %s field; place it in the run key", path, v.Kind())
	}
}

// TestRunKeyFields is the run key's completeness check: changing any
// field of sim.Config (nested structs included) or any exported sim.Kernel
// field must change both the memo key and the store encoding, except the
// fields resultConfig clears, which must change neither. A field added to
// either type fails here until it is in the key or on that list.
func TestRunKeyFields(t *testing.T) {
	fresh := func() (*sim.Kernel, sim.Config) {
		k, err := sim.NewConvKernel("key", hammerLayer)
		if err != nil {
			t.Fatal(err)
		}
		return k, QuickOptions().config()
	}
	k0, cfg0 := fresh()
	key0 := newRunKey(k0, cfg0)
	enc0 := key0.encode()
	cleared := map[string]bool{"Config.Tracer": true, "Config.CrashDumpDir": true, "Config.WatchdogWindow": true}
	seen := map[string]bool{}

	check := func(path string, k *sim.Kernel, cfg sim.Config) {
		t.Helper()
		seen[path] = true
		key := newRunKey(k, cfg)
		changed := key != key0
		if (key.encode() != enc0) != changed {
			t.Errorf("%s: memo key changed %v, but its encoding did not agree", path, changed)
		}
		if changed == cleared[path] {
			t.Errorf("%s: run key changed = %v; want %v", path, changed, !cleared[path])
		}
	}
	for _, path := range keyLeaves(reflect.TypeOf(sim.Config{}), "") {
		k, cfg := fresh()
		mutateLeaf(t, reflect.ValueOf(&cfg).Elem(), path)
		check("Config."+path, k, cfg)
	}
	for _, path := range keyLeaves(reflect.TypeOf(sim.Kernel{}), "") {
		k, cfg := fresh()
		mutateLeaf(t, reflect.ValueOf(k).Elem(), path)
		check("Kernel."+path, k, cfg)
	}
	// A plain GEMM's nil Conv is not the conv kernel's.
	k, cfg := fresh()
	k.Conv = nil
	check("Kernel.Conv=nil", k, cfg)

	for path := range cleared {
		if !seen[path] {
			t.Errorf("cleared field %s is not a sim.Config field", path)
		}
	}
}

// TestRunKeyMaxCycles: the run budgets are in the key, so a request bounded
// below a memoized cell's cycle count simulates under its bound and fails,
// rather than being served the unbounded result.
func TestRunKeyMaxCycles(t *testing.T) {
	opts := QuickOptions()
	opts.MaxCTAs, opts.SimSMs = 2, 1
	r := NewRunner(opts)
	k, err := sim.NewConvKernel("bounded", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()
	res, err := r.RunCtx(context.Background(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = res.Cycles / 2
	_, err = r.RunCtx(context.Background(), k, cfg)
	var se *sim.SimError
	if !errors.As(err, &se) || se.Phase != sim.PhaseCycleLimit {
		t.Fatalf("MaxCycles %d under a memoized %d-cycle run: got %v, want a %s error",
			cfg.MaxCycles, res.Cycles, err, sim.PhaseCycleLimit)
	}
	if got := r.Execs(); got != 2 {
		t.Errorf("executed %d simulations, want 2", got)
	}
}

// TestVariantsShareFig9Cells: kernels are keyed by what they are, not by a
// name made up to keep them apart, so the smem ablation's C-only column is
// Fig. 9's baseline cell and Fig. 14's forward GEMMs are Fig. 9's cells.
func TestVariantsShareFig9Cells(t *testing.T) {
	recording := func(opts Options) (*Runner, func() []string) {
		r := NewRunner(opts)
		var mu sync.Mutex
		var ran []string
		r.simFn = func(ctx context.Context, cfg sim.Config, k *sim.Kernel) (sim.Result, error) {
			mu.Lock()
			ran = append(ran, k.Name)
			mu.Unlock()
			res, err := stubSimFn(ctx, cfg, k)
			res.TotalCTAs, res.SimulatedCTAs = 1, 1
			return res, err
		}
		return r, func() []string {
			mu.Lock()
			defer mu.Unlock()
			out := ran
			ran = nil
			return out
		}
	}

	t.Run("smem after baseline", func(t *testing.T) {
		opts := QuickOptions()
		opts.Layers = workload.AllLayers()[:3]
		r, ran := recording(opts)
		for _, l := range opts.Layers {
			if _, err := r.Baseline(l); err != nil {
				t.Fatal(err)
			}
		}
		ran()
		if _, err := r.AblationSharedMem(); err != nil {
			t.Fatal(err)
		}
		if got, want := len(ran()), 2*len(opts.Layers); got != want {
			t.Errorf("smem after Baseline simulated %d kernels, want %d (A+B+C and A+C per layer)", got, want)
		}
	})

	t.Run("fig14 after fig9", func(t *testing.T) {
		r, ran := recording(QuickOptions())
		if _, err := r.Fig9(); err != nil {
			t.Fatal(err)
		}
		ran()
		if _, err := r.Fig14(); err != nil {
			t.Fatal(err)
		}
		names := ran()
		for _, name := range names {
			if !strings.HasSuffix(name, "/dgrad") && !strings.HasSuffix(name, "/wgrad") {
				t.Errorf("fig14 after fig9 simulated %s; Fig. 9 has that cell", name)
			}
		}
		// Training only, baseline and Duplo: two backward GEMMs per layer.
		if want := 2 * 2 * len(workload.AllLayers()); len(names) != want {
			t.Errorf("fig14 after fig9 simulated %d kernels, want %d", len(names), want)
		}
	})
}
