package experiments

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"

	duplo "duplo/internal/core"
	"duplo/internal/predictor"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// PredictorMode selects the analytical fast path's role in Run (DESIGN.md
// §9). The predictor is a third tier in front of the memoization cache and
// the disk store — but unlike those tiers it is approximate, so it only
// ever engages where the calibration gate passed, and its results are
// marked (sim.Result.Predicted) and never persisted.
type PredictorMode string

const (
	// PredictorOff (the zero value) disables prediction: every run is
	// cycle-sim ground truth. The pre-predictor behavior.
	PredictorOff PredictorMode = "off"
	// PredictAll predicts every cell inside the calibrated envelope whose
	// family passed the gate; only out-of-envelope or uncalibrated cells
	// simulate. The fast path for whole-figure regeneration.
	PredictAll PredictorMode = "predict-all"
	// PredictHybrid predicts only cells whose calibrated uncertainty
	// (family MAPE) is strictly below Options.PredictBound, and never the
	// cells feeding a table's headline ratios — those always simulate.
	// With PredictBound 0 nothing predicts and output is byte-identical
	// to PredictorOff (the safe-by-construction contract, gated by
	// TestHybridBoundZeroByteIdentical).
	PredictHybrid PredictorMode = "hybrid"
)

// parsePredictorMode resolves a -predict flag value ("" = off).
func parsePredictorMode(s string) (PredictorMode, error) {
	switch PredictorMode(s) {
	case "", PredictorOff:
		return PredictorOff, nil
	case PredictAll:
		return PredictAll, nil
	case PredictHybrid:
		return PredictHybrid, nil
	}
	return PredictorOff, fmt.Errorf("unknown predictor mode %q (off | predict-all | hybrid)", s)
}

// predictorMode resolves the configured mode's zero value.
func (r *Runner) predictorMode() PredictorMode {
	if r.opts.Predictor == "" {
		return PredictorOff
	}
	return r.opts.Predictor
}

// CalibrationKey fingerprints what a calibration artifact is valid for:
// predictor format version, the resolved simulator configuration, and the
// workload/LHB-point set the fit runs against. Any drift in these is a
// different key, so a stale artifact can never be silently reused.
func (r *Runner) CalibrationKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calib/v%d|%s", predictor.FormatVersion, r.key("base", r.opts.config()))
	for _, l := range r.opts.layers() {
		b.WriteString("|")
		b.WriteString(l.FullName())
	}
	for _, p := range LHBPoints {
		b.WriteString("|")
		b.WriteString(p.Name)
	}
	return b.String()
}

// calibrationPath resolves where the artifact lives: the explicit
// Options.CalibrationPath, else a key-addressed file inside the store
// directory, else nothing (fit is kept in memory only).
func (r *Runner) calibrationPath(key string) string {
	if r.opts.CalibrationPath != "" {
		return r.opts.CalibrationPath
	}
	if r.store != nil {
		return predictor.DefaultPath(r.store.Dir(), key)
	}
	return ""
}

// Calibration returns the installed calibration (nil before the first
// predicted run or Calibrate call) — duploserved's /statsz reads it.
func (r *Runner) Calibration() *predictor.Calibration {
	r.calMu.Lock()
	defer r.calMu.Unlock()
	return r.cal
}

// ensureCalibration returns the installed calibration, loading the
// persisted artifact or fitting from scratch on first use. Fitting
// simulates the calibration set through the normal exact path (store-
// warmed when a store is attached), so a failed fit is remembered and not
// retried per cell. Concurrent callers serialize on calMu; they hold no
// pool slot while waiting, so the fit's own fan-out cannot deadlock.
func (r *Runner) ensureCalibration(ctx context.Context) (*predictor.Calibration, error) {
	r.calMu.Lock()
	defer r.calMu.Unlock()
	if r.cal != nil {
		return r.cal, nil
	}
	if r.calErr != nil {
		return nil, r.calErr
	}
	cal, err := r.calibrateLocked(ctx, false)
	if err != nil {
		r.calErr = err
		return nil, err
	}
	r.cal = cal
	return cal, nil
}

// Calibrate fits (or refits, when force is true) the calibration against
// cycle-sim ground truth, installs it on the runner, and persists the
// artifact. With force false a valid persisted artifact short-circuits
// the fit entirely — a warm daemon never refits.
func (r *Runner) Calibrate(force bool) (*predictor.Calibration, error) {
	r.calMu.Lock()
	defer r.calMu.Unlock()
	cal, err := r.calibrateLocked(r.ctx, force)
	if err != nil {
		return nil, err
	}
	r.cal, r.calErr = cal, nil
	return cal, nil
}

func (r *Runner) calibrateLocked(ctx context.Context, force bool) (*predictor.Calibration, error) {
	key := r.CalibrationKey()
	path := r.calibrationPath(key)
	if !force && path != "" {
		cal, err := predictor.Load(path, key)
		if err == nil {
			r.progress("predictor: loaded calibration %s", path)
			return cal, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			// Damaged, version-skewed or mismatched artifacts refit; say so.
			r.progress("predictor: %v (refitting)", err)
		}
	}
	cal, err := r.fitCalibration(ctx, key)
	if err != nil {
		return nil, err
	}
	if path != "" {
		// Best-effort, like store.Put: an unwritable artifact must not
		// fail the sweep — the fit still serves this process.
		if serr := predictor.Save(path, cal); serr != nil {
			r.progress("predictor: persist calibration: %v", serr)
		} else {
			r.progress("predictor: calibration saved to %s", path)
		}
	}
	return cal, nil
}

// calibrationConfigs returns the ground-truth config set the fit runs per
// layer: the baseline plus every Fig. 9 LHB point (the gate's "both Duplo
// off and on" sample split).
func (r *Runner) calibrationConfigs() []sim.Config {
	cfgs := make([]sim.Config, 0, 1+len(LHBPoints))
	cfgs = append(cfgs, r.opts.config())
	for _, p := range LHBPoints {
		cfg := r.opts.config()
		cfg.Duplo = true
		cfg.DetectCfg.LHB = p.Cfg
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// fitCalibration simulates the Fig. 9 workload grid through the exact
// path (memo- and store-warmed) and fits the per-family models.
func (r *Runner) fitCalibration(ctx context.Context, key string) (*predictor.Calibration, error) {
	layers := r.opts.layers()
	cfgs := r.calibrationConfigs()
	kernels := make([]*sim.Kernel, len(layers))
	for i, l := range layers {
		k, err := LayerKernel(l)
		if err != nil {
			return nil, err
		}
		kernels[i] = k
	}
	samples := make([]predictor.Sample, len(layers)*len(cfgs))
	err := r.fanOut(len(samples), func(i int) error {
		li, ci := i/len(cfgs), i%len(cfgs)
		res, err := r.RunCtx(ctx, kernels[li], cfgs[ci])
		if err != nil {
			return err
		}
		samples[i] = predictor.SampleOf(kernels[li], cfgs[ci], res)
		r.progress("calibrate %s cfg %d/%d done", layers[li].FullName(), ci+1, len(cfgs))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("predictor: calibration ground truth: %w", err)
	}
	return predictor.Fit(key, samples)
}

// FigCalibrate is the `-exp calibrate` sweep: refit against ground truth,
// persist the artifact, and render the fit report — per-family sample
// counts, MAPE / Pearson r / max APE on the cycles target (overall and on
// the gated Duplo-off/on subsets), and the gate verdict.
func (r *Runner) FigCalibrate() (*report.Table, error) {
	t := report.NewTable("Calibration: analytical predictor vs cycle-sim ground truth",
		"Family", "N", "MAPE", "r", "MaxAPE", "MAPE(off)", "r(off)", "MAPE(on)", "r(on)", "Gate")
	cal, err := r.Calibrate(true)
	if err != nil {
		t.AddRowCells([]string{errCell, errCell, errCell, errCell, errCell,
			errCell, errCell, errCell, errCell, errCell})
		return t, err
	}
	for _, m := range cal.FamilyList() {
		verdict := "pass"
		if !m.GatePass {
			verdict = "FAIL"
		}
		t.AddRowCells([]string{
			m.Family, fmt.Sprint(m.All.N),
			report.PctU(m.All.MAPE), fmt.Sprintf("%.3f", m.All.Pearson), report.PctU(m.All.MaxAPE),
			report.PctU(m.Off.MAPE), fmt.Sprintf("%.3f", m.Off.Pearson),
			report.PctU(m.On.MAPE), fmt.Sprintf("%.3f", m.On.Pearson),
			verdict,
		})
	}
	note := fmt.Sprintf("gate: MAPE <= %s and r >= %.2f per family on both Duplo-off and Duplo-on subsets",
		report.PctU(predictor.GateMAPE), predictor.GatePearson)
	if path := r.calibrationPath(cal.Key); path != "" {
		note += "; artifact: " + path
	}
	t.Note = note
	if !cal.GatePass() {
		return t, fmt.Errorf("predictor: calibration gate failed (families above)")
	}
	return t, nil
}

// inEnvelope reports whether a config lies inside the calibrated envelope:
// identical to the runner's base config on every axis the calibration
// sweep does not vary (SM count, CTA cap, cache sizes, latencies, ...),
// with the Duplo axis restricted to what the fit observed — any entry
// count, direct-mapped, hash-indexed, default detection latency, oracle
// allowed. Everything else (associativity sweeps, modulo indexing,
// never-evict, scaled caches, traced runs) must simulate: the model has
// no feature that saw those axes move.
func (r *Runner) inEnvelope(cfg sim.Config) bool {
	if cfg.Tracer != nil {
		return false
	}
	base := r.opts.config()
	// Compare everything except the axes calibration varies.
	c, b := cfg, base
	c.Tracer, b.Tracer = nil, nil
	c.Duplo, b.Duplo = false, false
	c.DetectCfg, b.DetectCfg = base.DetectCfg, base.DetectCfg
	if c != b {
		return false
	}
	if !cfg.Duplo {
		return true
	}
	d := cfg.DetectCfg
	if d.LatencyCycles != base.DetectCfg.LatencyCycles || d.PID != base.DetectCfg.PID {
		return false
	}
	l := d.LHB
	if l.NeverEvict || l.ModuloIndex || l.Ways > 1 {
		return false
	}
	return l.Oracle || l.Entries > 0
}

// runTier is the predict-aware run path: fall through to exact cycle
// simulation unless the mode, the envelope, the family's calibration gate
// and (in hybrid) the uncertainty bound all clear. The decision is a pure
// function of (options, kernel, config, headline) — never of timing or
// cache state — so tables stay byte-identical at any worker count.
func (r *Runner) runTier(ctx context.Context, k *sim.Kernel, cfg sim.Config, headline bool) (sim.Result, error) {
	mode := r.predictorMode()
	if mode == PredictorOff || !r.inEnvelope(cfg) {
		return r.RunCtx(ctx, k, cfg)
	}
	if mode == PredictHybrid && (headline || r.opts.PredictBound <= 0) {
		return r.RunCtx(ctx, k, cfg)
	}
	cal, err := r.ensureCalibration(ctx)
	if err != nil {
		// A failed calibration degrades to ground truth (and is remembered,
		// so this is one fallback decision, not one per cell).
		return r.RunCtx(ctx, k, cfg)
	}
	m, ok := cal.Model(k)
	if !ok {
		return r.RunCtx(ctx, k, cfg)
	}
	if mode == PredictHybrid && !(m.Uncertainty() < r.opts.PredictBound) {
		return r.RunCtx(ctx, k, cfg)
	}

	// Predicted results memoize apart from ground truth, in this runner's
	// own memo: a predicted entry can never shadow (or be shadowed by) the
	// exact result for the same cell, and never crosses into a session
	// that predicts from another calibration.
	key := r.key(k.Name, cfg)
	e, inFlight := join(&r.predMu, r.preds, key)
	if inFlight {
		r.memHits.Add(1)
		<-e.done
		return e.res, e.err
	}
	res, ok := cal.PredictResult(k, cfg)
	if !ok {
		// Unreachable (Model gate-checked above) — but degrade, don't trust.
		e.err = fmt.Errorf("predictor: no model for %s", k.Name)
		evict(&r.predMu, r.preds, key, e)
		close(e.done)
		return r.RunCtx(ctx, k, cfg)
	}
	r.predicted.Add(1)
	e.res = res
	close(e.done)
	return res, nil
}

// predErrOf folds the predictedness of the runs contributing to one table
// cell: -1 when every contributor is ground truth, else the worst
// expected relative error among predicted contributors (>= 0).
func predErrOf(rs ...sim.Result) float64 {
	e := -1.0
	for _, res := range rs {
		if res.Predicted {
			if e < 0 {
				e = 0
			}
			if res.PredictedErr > e {
				e = res.PredictedErr
			}
		}
	}
	return e
}

// markPred appends the predicted-cell marker to a rendered cell.
func markPred(cell string, predErr float64) string {
	if predErr >= 0 {
		return cell + predictedMark
	}
	return cell
}

// predictedMark is the visible marker on every predicted cell.
const predictedMark = "~"

// predMatrix allocates a rows x cols predicted-error matrix initialized
// to the ground-truth sentinel (-1).
func predMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = -1
		}
	}
	return m
}

// predNote builds the per-table footer note: only emitted when at least
// one cell is predicted, so ground-truth-only tables stay byte-identical
// to the pre-predictor output.
func predNote(t *report.Table, pred []float64) {
	n, maxErr := 0, 0.0
	for _, e := range pred {
		if e >= 0 {
			n++
			if e > maxErr {
				maxErr = e
			}
		}
	}
	if n == 0 {
		return
	}
	t.Note = fmt.Sprintf("%s = predicted by the calibrated analytical model (%d cells); max predicted error %s",
		predictedMark, n, report.PctU(maxErr))
}

// Exact run variants: always cycle-sim ground truth regardless of
// Options.Predictor. The ablations, the energy/area model and the
// calibration fit itself use these — their tables are documented as
// ground-truth-only (DESIGN.md §9).

// RunExact simulates k under cfg through the memo/store tiers, never the
// predictor.
func (r *Runner) RunExact(k *sim.Kernel, cfg sim.Config) (sim.Result, error) {
	return r.RunCtx(r.ctx, k, cfg)
}

// BaselineExact is Baseline without the predictor tier.
func (r *Runner) BaselineExact(l workload.Layer) (sim.Result, error) {
	k, err := LayerKernel(l)
	if err != nil {
		return sim.Result{}, err
	}
	return r.RunCtx(r.ctx, k, r.opts.config())
}

// DuploExact is Duplo without the predictor tier.
func (r *Runner) DuploExact(l workload.Layer, lhb duplo.LHBConfig) (sim.Result, error) {
	k, err := LayerKernel(l)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := r.opts.config()
	cfg.Duplo = true
	cfg.DetectCfg.LHB = lhb
	return r.RunCtx(r.ctx, k, cfg)
}
