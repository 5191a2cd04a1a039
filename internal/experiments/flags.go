package experiments

import (
	"flag"
	"fmt"

	"duplo/internal/profiling"
	"duplo/internal/sim"
	"duplo/internal/store"
)

// RunFlags declares on fs the run flags that duploexp, duplosim and
// duploserved share (-ctas, -sms, -workers, -store, -predict,
// -calibration, -cpuprofile, -memprofile, -max-cycles and -crash-dir),
// each defaulting to its DefaultOptions value. After fs.Parse, the
// returned resolve rejects a negative -ctas, -workers or -max-cycles and
// an -sms outside 1..sim.NumSMs, parses -predict, opens the -store
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
	predict := fs.String("predict", string(o.Predictor), "calibrated analytical fast path: off | predict-all (predicted results are marked '~'; see DESIGN.md §9)")
	fs.StringVar(&o.CalibrationPath, "calibration", o.CalibrationPath, "calibration artifact path (default: <store>/calibration/<key>.json when -store is set, else in-memory only)")
	storeDir := fs.String("store", "", "directory of the on-disk result store (warm-starts identical runs; created if missing)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func() (Options, func() error, error) {
		// Options.config() and NewRunner read these values as "use the
		// default" (TitanVConfig's scale, GOMAXPROCS) for code-built
		// Options; from a flag they are mistakes.
		switch {
		case o.MaxCTAs < 0:
			return Options{}, nil, fmt.Errorf("-ctas %d: must be >= 0 (0 = full grid)", o.MaxCTAs)
		case o.SimSMs < 1 || o.SimSMs > sim.NumSMs:
			return Options{}, nil, fmt.Errorf("-sms %d: must be in 1..%d", o.SimSMs, sim.NumSMs)
		case o.Workers < 0:
			return Options{}, nil, fmt.Errorf("-workers %d: must be >= 0 (0 = GOMAXPROCS)", o.Workers)
		case o.MaxCycles < 0:
			return Options{}, nil, fmt.Errorf("-max-cycles %d: must be >= 0 (0 = simulator default)", o.MaxCycles)
		}
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
