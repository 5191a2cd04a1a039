package experiments

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// parseRunFlags binds the shared run flags on a fresh flag set, parses
// args and resolves them, ending any profile it started.
func parseRunFlags(t *testing.T, args ...string) (Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	resolve := RunFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	opts, stop, err := resolve()
	if err != nil {
		return opts, err
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	return opts, nil
}

func TestRunFlags(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		opts, err := parseRunFlags(t)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opts, DefaultOptions()) {
			t.Errorf("empty args resolve to %+v, want DefaultOptions %+v", opts, DefaultOptions())
		}
		if opts.MaxCTAs != 96 || opts.SimSMs != 4 || opts.Predictor != PredictorOff {
			t.Errorf("defaults %d CTAs, %d SMs, predictor %q; want 96, 4, off",
				opts.MaxCTAs, opts.SimSMs, opts.Predictor)
		}
		// The config duploexp, duplosim and duploserved built from their
		// own flag defaults before they shared these flags.
		if got, want := opts.Config(), (Options{MaxCTAs: 96, SimSMs: 4}).Config(); !reflect.DeepEqual(got, want) {
			t.Errorf("default Config %+v, want %+v", got, want)
		}
		if opts.Store != nil {
			t.Error("no -store opened a store")
		}
	})

	t.Run("ctas 0 is the full grid", func(t *testing.T) {
		opts, err := parseRunFlags(t, "-ctas", "0")
		if err != nil {
			t.Fatal(err)
		}
		if opts.MaxCTAs != 0 || opts.Config().MaxCTAs != 0 {
			t.Errorf("-ctas 0: MaxCTAs %d, Config().MaxCTAs %d; want 0", opts.MaxCTAs, opts.Config().MaxCTAs)
		}
	})

	t.Run("unknown predictor", func(t *testing.T) {
		if _, err := parseRunFlags(t, "-predict", "sometimes"); err == nil {
			t.Error("-predict sometimes resolved without an error")
		}
	})

	t.Run("every flag", func(t *testing.T) {
		dir := t.TempDir()
		storeDir := filepath.Join(dir, "store")
		mem := filepath.Join(dir, "mem.pprof")
		opts, err := parseRunFlags(t, "-ctas", "12", "-sms", "2", "-workers", "3",
			"-store", storeDir, "-predict", "predict-all",
			"-calibration", "calib.json", "-memprofile", mem,
			"-max-cycles", "5000", "-crash-dir", dir)
		if err != nil {
			t.Fatal(err)
		}
		if opts.MaxCTAs != 12 || opts.SimSMs != 2 || opts.Workers != 3 ||
			opts.Predictor != PredictAll ||
			opts.CalibrationPath != "calib.json" || opts.MaxCycles != 5000 || opts.CrashDumpDir != dir {
			t.Errorf("flags resolved to %+v", opts)
		}
		if opts.Store == nil || opts.Store.Dir() != storeDir {
			t.Fatalf("-store %s did not open that store: %v", storeDir, opts.Store)
		}
		if fi, err := os.Stat(storeDir); err != nil || !fi.IsDir() {
			t.Errorf("store directory not created: %v", err)
		}
		if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
			t.Errorf("-memprofile wrote no heap profile: %v", err)
		}
	})
}
