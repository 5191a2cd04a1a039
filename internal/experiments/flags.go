package experiments

import (
	"flag"

	"duplo/internal/profiling"
	"duplo/internal/store"
)

// RunFlags declares on fs the run flags that duploexp, duplosim and
// duploserved share (-ctas, -sms, -workers, -store, -predict,
// -predict-bound, -calibration, -cpuprofile, -memprofile, -max-cycles and
// -crash-dir), each defaulting to its DefaultOptions value. After
// fs.Parse, the returned resolve parses -predict, opens the -store
// directory and starts the -cpuprofile/-memprofile profiles; its stop
// ends the profiles and writes the heap profile. The caller sets the
// Options fields its own flags and context decide.
func RunFlags(fs *flag.FlagSet) (resolve func() (opts Options, stop func() error, err error)) {
	o := DefaultOptions()
	fs.IntVar(&o.MaxCTAs, "ctas", o.MaxCTAs, "max CTAs simulated per kernel (0 = full grid)")
	fs.IntVar(&o.SimSMs, "sms", o.SimSMs, "number of SMs simulated")
	fs.IntVar(&o.Workers, "workers", o.Workers, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.Int64Var(&o.MaxCycles, "max-cycles", o.MaxCycles, "abort any simulation past this many simulated cycles (0 = simulator default)")
	fs.StringVar(&o.CrashDumpDir, "crash-dir", o.CrashDumpDir, "directory for watchdog/panic crash dumps (default: system temp dir)")
	predict := fs.String("predict", string(o.Predictor), "calibrated analytical fast path: off | predict-all | hybrid (predicted results are marked '~'; see DESIGN.md §9)")
	fs.Float64Var(&o.PredictBound, "predict-bound", o.PredictBound, "hybrid mode's uncertainty bound: predict only when the family's calibrated MAPE is below this (0 = never predict)")
	fs.StringVar(&o.CalibrationPath, "calibration", o.CalibrationPath, "calibration artifact path (default: <store>/calibration/<key>.json when -store is set, else in-memory only)")
	storeDir := fs.String("store", "", "directory of the on-disk result store (warm-starts identical runs; created if missing)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func() (Options, func() error, error) {
		mode, err := parsePredictorMode(*predict)
		if err != nil {
			return Options{}, nil, err
		}
		o.Predictor = mode
		if *storeDir != "" {
			if o.Store, err = store.Open(*storeDir); err != nil {
				return Options{}, nil, err
			}
		}
		stop, err := profiling.Start(*cpuprofile, *memprofile)
		if err != nil {
			return Options{}, nil, err
		}
		return o, stop, nil
	}
}
