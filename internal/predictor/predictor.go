// Package predictor is the calibrated analytical fast path in front of the
// cycle simulator (ROADMAP open item 3): a small per-layer-family linear
// model fit by least squares against cycle-sim ground truth, with an
// explicit calibration gate (MAPE and Pearson r thresholds) and persisted
// calibration artifacts.
//
// The model is deliberately simple — a handful of physically meaningful
// features per sample, one weight vector per predicted counter per layer
// family — because its job is interpolation inside a calibrated envelope,
// not discovery. Every feature is computable without simulating: exact
// static instruction counts from sim.Kernel.StaticWork (the warp programs
// are deterministic), roofline-style cycle terms for each candidate
// bottleneck (issue throughput, L1 port serialization, DRAM bandwidth,
// tensor-core initiation), their max (the roofline hull, linear in the
// weights even though it is nonlinear in the inputs), and Duplo redundancy
// terms built from the convolution's duplication factor and an
// LHB-capacity coverage estimate.
//
// The fit minimizes squared *relative* error (each sample's row is scaled
// by 1/max(|y|,1)), so the least-squares objective is aligned with the
// MAPE gate rather than dominated by the largest layers. Duplo activity
// counters (eliminations, LHB hits, ...) are fit separately as
// *intensities* — counts per eligible A row load, over the scale-free
// coverage features — and scaled back up by the exact structural lookup
// volume at prediction time: relative-error WLS on raw counts quietly
// sacrifices the largest layers whenever the capacity features cannot
// separate layers, while intensities put every (layer, LHB point) cell on
// equal footing. A family whose fit fails the gate never predicts —
// callers fall back to the simulator, which is always correct.
package predictor

import (
	"fmt"
	"math"
	"sort"

	"duplo/internal/sim"
)

// FormatVersion is bumped whenever the feature set, target set, or fit
// procedure changes incompatibly; it participates in both the artifact
// envelope and the calibration key, so a stale artifact is a clean refit,
// never a reinterpretation.
const FormatVersion = 2

// Calibration gate thresholds (ISSUE 7 acceptance criteria): a family
// predicts only when its fit achieves MAPE <= GateMAPE and Pearson
// r >= GatePearson on the cycles target against cycle-sim ground truth,
// evaluated separately on the Duplo-off and Duplo-on sample subsets.
const (
	GateMAPE    = 0.15
	GatePearson = 0.95
)

// FeatureNames names the feature vector, index-aligned with Features.
var FeatureNames = []string{
	"bias",
	"t_issue",     // warp instructions / issue throughput
	"t_l1port",    // load line-requests / L1 port throughput
	"t_dram",      // compulsory bytes / sliced DRAM bandwidth
	"t_mma",       // MMA steps / tensor-core initiation throughput
	"t_max",       // roofline hull: max of the four terms above
	"elim_red",    // Duplo: capacity-unlimited redundant-load volume
	"elim_near",   // ... discounted by near-reuse LHB coverage
	"elim_far",    // ... discounted by far-reuse LHB coverage
	"elim_oracle", // oracle-only redundant-load volume
	"eligible",    // Duplo: LHB-eligible load volume (workspace loads)
	"waves",       // CTA waves per SM (epilogue / fill overhead)
}

// IntensiveNames names the scale-free feature vector the Duplo activity
// counters are fit against, index-aligned with Intensives. Every term is
// an O(1) fraction — independent of layer size and CTA count — so the
// normalized fit weighs every (layer, LHB point) cell equally.
var IntensiveNames = []string{
	"bias",
	"frac",        // capacity-unlimited redundant fraction 1-1/D
	"frac_near",   // ... discounted by near-reuse LHB coverage
	"frac_far",    // ... discounted by far-reuse LHB coverage
	"frac_oracle", // oracle-only redundant fraction
}

// NormTargetNames lists the targets fit as intensities (counts per
// eligible A row load) rather than raw counts, index-aligned with
// FamilyModel.NormWeights rows. All of them are Duplo activity counters
// proportional to the detection-unit lookup volume.
var NormTargetNames = []string{
	"loads_eliminated",
	"lhb_hits",
	"lhb_allocs",
	"lhb_replacements",
	"lhb_releases",
	"lhb_relays",
	"renames",
	"allocs",
	"svc_lhb",
}

// TargetNames names the predicted counters, index-aligned with Targets
// and with FamilyModel.Weights rows. Cycles is first: it is the gated
// target, and the one every speedup ratio is built from.
var TargetNames = []string{
	"cycles",
	"issue_stall",
	"ldst_stall",
	"loads_eliminated",
	"lhb_lookups",
	"lhb_hits",
	"lhb_allocs",
	"lhb_replacements",
	"lhb_releases",
	"lhb_relays",
	"renames",
	"allocs",
	"l1_accesses",
	"l1_hits",
	"l2_accesses",
	"l2_hits",
	"dram_lines",
	"store_lines",
	"mshr_merges",
	"svc_lhb",
	"svc_l1",
	"svc_l2",
	"svc_dram",
}

// Family classifies a kernel into a layer family: one linear model is fit
// per family, because the duplication structure (and therefore the shape
// of the Duplo response) is set by the filter geometry. Plain GEMM kernels
// (no lowered convolution: wgrad, synthetic M/N/K) form the "gemm" family.
func Family(k *sim.Kernel) string {
	if k.Conv == nil {
		return "gemm"
	}
	return fmt.Sprintf("conv%dx%ds%d", k.Conv.FH, k.Conv.FW, k.Conv.Stride)
}

// Features computes the feature vector for one (kernel, config) cell.
// Everything is derived statically — no simulation.
func Features(k *sim.Kernel, cfg sim.Config) []float64 {
	w := k.StaticWork(cfg.MaxCTAs)
	sms := float64(cfg.SimSMs)
	loads := float64(w.ALoads + w.BLoads)
	instrs := float64(w.Instructions())

	// Roofline terms, each in cycles (up to a constant the fit absorbs).
	tIssue := instrs / (sms * sim.Schedulers)
	// A 16x16 half tile load splits into 16 row segments of 32B; the L1
	// port serializes line requests.
	tL1 := loads * 16 / sms
	tDRAM := compulsoryBytes(k, w) / (cfg.DRAMBytesPerCycle() * cfg.SliceScale())
	tMMA := float64(w.MMAs) * sim.MMAInitiation / (sms * sim.TensorCores / 2)
	tMax := math.Max(math.Max(tIssue, tL1), math.Max(tDRAM, tMMA))

	// Duplo redundancy terms: zero when the detection unit is off or the A
	// operand is not a lowered workspace (nothing is LHB-eligible).
	var elim, elimNear, elimFar, elimOracle, eligible float64
	if cfg.Duplo && k.Conv != nil {
		eligible = float64(w.ALoads) * 16 / sms // line-request units, like tL1
		frac, covNear, covFar, oracle := duploCoverage(k, cfg)
		elim = eligible * frac
		if oracle {
			elimOracle = elim
		}
		elimNear = elim * covNear
		elimFar = elim * covFar
	}

	waves := 0.0
	if per := k.CTAsPerSM(); per > 0 && cfg.SimSMs > 0 {
		waves = math.Ceil(float64(w.CTAs) / float64(cfg.SimSMs*per))
	}

	return []float64{1, tIssue, tL1, tDRAM, tMMA, tMax,
		elim, elimNear, elimFar, elimOracle, eligible, waves}
}

// duploCoverage computes the redundant-load fraction of a lowered
// convolution and the LHB capacity coverage of its two reuse distances.
// Requires k.Conv != nil and cfg.Duplo.
func duploCoverage(k *sim.Kernel, cfg sim.Config) (frac, covNear, covFar float64, oracle bool) {
	p := k.Conv
	frac = 1 - 1/p.DuplicationFactor()
	if frac < 0 {
		frac = 0
	}
	covNear, covFar = 1.0, 1.0
	oracle = cfg.DetectCfg.LHB.Oracle
	if !oracle {
		entries := float64(cfg.DetectCfg.LHB.Entries)
		// Reuse working sets in distinct-input-ID units: one workspace
		// row (horizontal reuse) and one filter-row sweep of the input
		// (vertical reuse).
		near := float64(p.GemmK())
		far := float64(p.FH) * float64(p.C) * float64(p.W)
		covNear = entries / (entries + near)
		covFar = entries / (entries + far)
	}
	return frac, covNear, covFar, oracle
}

// Intensives computes the scale-free feature vector (IntensiveNames
// order) for one (kernel, config) cell. All terms are zero past the bias
// when the detection unit is off or the kernel has no lowered workspace.
func Intensives(k *sim.Kernel, cfg sim.Config) []float64 {
	out := make([]float64, len(IntensiveNames))
	out[0] = 1
	if !cfg.Duplo || k.Conv == nil {
		return out
	}
	frac, covNear, covFar, oracle := duploCoverage(k, cfg)
	out[1] = frac
	out[2] = frac * covNear
	out[3] = frac * covFar
	if oracle {
		out[4] = frac
	}
	return out
}

// compulsoryBytes estimates the compulsory DRAM read footprint of the
// simulated CTA prefix: the touched A rows, the touched B columns, plus
// the D write-through traffic.
func compulsoryBytes(k *sim.Kernel, w sim.Work) float64 {
	a := float64(w.RowsCovered) * float64(k.KPad) * float64(k.ElemSize)
	b := float64(k.KPad) * float64(w.ColsCovered) * float64(k.ElemSize)
	d := float64(w.RowsCovered) * float64(k.NPad) * float64(k.DElemSize)
	return a + b + d
}

// Sample is one calibration observation: a (kernel, config) cell's
// features and its simulated ground-truth targets.
type Sample struct {
	Family   string    `json:"family"`
	Duplo    bool      `json:"duplo"`
	Features []float64 `json:"features"`
	Targets  []float64 `json:"targets"`
	// Intensive / Eligible feed the normalized Duplo-counter fit: the
	// scale-free feature vector (IntensiveNames order) and the structural
	// detection-unit lookup volume (ARowLoads) the counters are divided
	// by. Zero Eligible (Duplo off, or no lowered workspace) excludes the
	// sample from that fit.
	Intensive []float64 `json:"intensive,omitempty"`
	Eligible  float64   `json:"eligible,omitempty"`
}

// SampleOf builds the calibration sample for a simulated result.
func SampleOf(k *sim.Kernel, cfg sim.Config, res sim.Result) Sample {
	s := Sample{
		Family:   Family(k),
		Duplo:    cfg.Duplo,
		Features: Features(k, cfg),
		Targets:  Targets(res),
	}
	if cfg.Duplo && k.Conv != nil {
		s.Eligible = float64(k.StaticWork(cfg.MaxCTAs).ARowLoads())
		s.Intensive = Intensives(k, cfg)
	}
	return s
}

// Targets extracts the predicted-counter vector (TargetNames order) from a
// ground-truth result.
func Targets(res sim.Result) []float64 {
	s := res.Stats
	return []float64{
		float64(s.Cycles),
		float64(s.IssueStallCycles),
		float64(s.LDSTStallCycles),
		float64(s.LoadsEliminated),
		float64(s.LHB.Lookups),
		float64(s.LHB.Hits),
		float64(s.LHB.Allocs),
		float64(s.LHB.Replacements),
		float64(s.LHB.Releases),
		float64(s.LHB.Relays),
		float64(s.RenameCount),
		float64(s.AllocCount),
		float64(s.L1Accesses),
		float64(s.L1Hits),
		float64(s.L2Accesses),
		float64(s.L2Hits),
		float64(s.DRAMLines),
		float64(s.StoreLines),
		float64(s.MSHRMerges),
		float64(s.ServiceLines[sim.ServiceLHB]),
		float64(s.ServiceLines[sim.ServiceL1]),
		float64(s.ServiceLines[sim.ServiceL2]),
		float64(s.ServiceLines[sim.ServiceDRAM]),
	}
}

// Metrics summarizes a fit's accuracy on the cycles target over one sample
// subset.
type Metrics struct {
	N       int     `json:"n"`
	MAPE    float64 `json:"mape"`
	MaxAPE  float64 `json:"max_ape"`
	Pearson float64 `json:"pearson"`
}

// FamilyModel is the fitted model of one layer family.
type FamilyModel struct {
	Family string `json:"family"`
	// Weights[t] is the weight vector of target t (TargetNames order) over
	// the features (FeatureNames order).
	Weights [][]float64 `json:"weights"`
	// NormWeights[t] is the weight vector of normalized target t
	// (NormTargetNames order) over the intensive features (IntensiveNames
	// order): the model predicts count = eligible · (wI · fI). Nil when
	// the family had no eligible samples (plain GEMM); predictions then
	// fall back to the extensive regression.
	NormWeights [][]float64 `json:"norm_weights,omitempty"`
	// Fit quality on the cycles target: all samples, and the Duplo-off /
	// Duplo-on subsets the gate is evaluated on.
	All Metrics `json:"all"`
	Off Metrics `json:"off"`
	On  Metrics `json:"on"`
	// GatePass is the calibration gate: both subsets within GateMAPE and
	// GatePearson. A failing family never predicts.
	GatePass bool `json:"gate_pass"`
}

// Uncertainty is the expected relative error carried on predictions from
// this family: the worse of the two gated subset MAPEs. It sets every
// predicted Result's PredictedErr, which the tables' max-predicted-error
// footer reads, and duploserved's /statsz reports it per family.
func (m *FamilyModel) Uncertainty() float64 {
	return math.Max(m.Off.MAPE, m.On.MAPE)
}

// normWeights returns the intensity weight vector of a normalized target,
// or nil when the family carries no normalized fit. It panics on a name
// outside NormTargetNames — a typo, which the package tests exercise.
func (m *FamilyModel) normWeights(name string) []float64 {
	for i, n := range NormTargetNames {
		if n == name {
			if i < len(m.NormWeights) {
				return m.NormWeights[i]
			}
			return nil
		}
	}
	panic("predictor: target " + name + " has no normalized model")
}

// Calibration is a fitted, persistable set of family models.
type Calibration struct {
	// Key fingerprints what this calibration is valid for: predictor
	// format version, simulator configuration, and the workload set it was
	// fit against. A loaded artifact with a different key is discarded.
	Key        string                  `json:"key"`
	Features   []string                `json:"features"`
	Intensives []string                `json:"intensives"`
	Targets    []string                `json:"targets"`
	Families   map[string]*FamilyModel `json:"families"`
}

// Fit performs the per-family weighted least-squares fit and evaluates the
// calibration gate. Samples with mismatched vector lengths are rejected
// outright — that is a programming error, not noise.
func Fit(key string, samples []Sample) (*Calibration, error) {
	c := &Calibration{
		Key:        key,
		Features:   append([]string(nil), FeatureNames...),
		Intensives: append([]string(nil), IntensiveNames...),
		Targets:    append([]string(nil), TargetNames...),
		Families:   map[string]*FamilyModel{},
	}
	byFam := map[string][]Sample{}
	for _, s := range samples {
		if len(s.Features) != len(FeatureNames) || len(s.Targets) != len(TargetNames) {
			return nil, fmt.Errorf("predictor: sample for %s has %d features / %d targets, want %d / %d",
				s.Family, len(s.Features), len(s.Targets), len(FeatureNames), len(TargetNames))
		}
		if s.Eligible > 0 && len(s.Intensive) != len(IntensiveNames) {
			return nil, fmt.Errorf("predictor: eligible sample for %s has %d intensive features, want %d",
				s.Family, len(s.Intensive), len(IntensiveNames))
		}
		byFam[s.Family] = append(byFam[s.Family], s)
	}
	for fam, ss := range byFam {
		m := fitFamily(fam, ss)
		c.Families[fam] = m
	}
	return c, nil
}

// FamilyList returns the family models sorted by name (deterministic
// report order).
func (c *Calibration) FamilyList() []*FamilyModel {
	names := make([]string, 0, len(c.Families))
	for n := range c.Families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*FamilyModel, len(names))
	for i, n := range names {
		out[i] = c.Families[n]
	}
	return out
}

// GatePass reports whether every fitted family passed the calibration
// gate.
func (c *Calibration) GatePass() bool {
	if len(c.Families) == 0 {
		return false
	}
	for _, m := range c.Families {
		if !m.GatePass {
			return false
		}
	}
	return true
}

// Model returns the gate-passing model for a kernel's family, or false
// when the family is uncalibrated or failed the gate (the caller must
// simulate).
func (c *Calibration) Model(k *sim.Kernel) (*FamilyModel, bool) {
	if c == nil {
		return nil, false
	}
	m, ok := c.Families[Family(k)]
	if !ok || !m.GatePass {
		return nil, false
	}
	return m, true
}

// PredictResult synthesizes a full sim.Result for the cell without
// simulating. ok is false when the kernel's family is uncalibrated or
// failed the gate. Exactly-known counters (instruction counts, CTA
// accounting) are filled from the static work profile; predicted counters
// are clamped to their valid ranges (non-negative, hits <= accesses,
// eliminations <= loads) so a prediction is always a plausible Stats
// block even at the edge of the envelope.
func (c *Calibration) PredictResult(k *sim.Kernel, cfg sim.Config) (sim.Result, bool) {
	m, ok := c.Model(k)
	if !ok {
		return sim.Result{}, false
	}
	feats := Features(k, cfg)
	pred := make([]float64, len(m.Weights))
	for t, w := range m.Weights {
		pred[t] = dot(w, feats)
	}
	work := k.StaticWork(cfg.MaxCTAs)
	res := sim.Result{
		SimulatedCTAs: work.CTAs,
		TotalCTAs:     k.TotalCTAs(),
		Kernel:        k,
		Config:        cfg,
		Predicted:     true,
		PredictedErr:  m.Uncertainty(),
	}
	s := &res.Stats
	// Exact by construction (the warp programs are static).
	s.Instructions = work.Instructions()
	s.TensorLoads = work.RowLoads()
	s.MMAs = work.MMAs
	s.Stores = work.Stores

	at := func(name string) int64 { return count(pred[targetIndex(name)]) }
	atU := func(name string) uint64 { return uint64(count(pred[targetIndex(name)])) }
	// Duplo activity counters use the normalized fit when available:
	// intensity (per eligible A row load) times the exact structural
	// lookup volume. The extensive regression is the fallback for kernels
	// with no workspace (plain GEMM) or families with no eligible samples.
	var elig float64
	var fI []float64
	if cfg.Duplo && k.Conv != nil {
		elig = float64(work.ARowLoads())
		fI = Intensives(k, cfg)
	}
	nAt := func(name string) int64 {
		if w := m.normWeights(name); w != nil && elig > 0 {
			return count(elig * dot(w, fI))
		}
		return at(name)
	}
	nAtU := func(name string) uint64 { return uint64(nAt(name)) }
	s.Cycles = max(at("cycles"), 1)
	s.IssueStallCycles = min(at("issue_stall"), s.Cycles*sim.Schedulers*int64(cfg.SimSMs))
	s.LDSTStallCycles = at("ldst_stall")
	if cfg.Duplo {
		// Lookups are structural, not regressed: every A row load of a
		// lowered-workspace kernel consults the detection unit (sm.go
		// issueLoad), so predicting them would only add error to the
		// rendered hit rate. Non-conv kernels have no workspace; the
		// detection unit bypasses and the regressed count (clamped up to
		// hits) is the best available.
		if k.Conv != nil {
			s.LHB.Lookups = uint64(work.ARowLoads())
		}
		elim := min(nAt("loads_eliminated"), s.TensorLoads)
		// The simulator's accounting ties eliminations to LHB hits one to
		// one (invariants_test), so hits derive from the gated elimination
		// prediction, capped by what was looked up.
		s.LHB.Hits = min(nAtU("lhb_hits"), uint64(elim))
		if k.Conv != nil {
			s.LHB.Hits = min(s.LHB.Hits, s.LHB.Lookups)
		} else {
			s.LHB.Lookups = max(atU("lhb_lookups"), s.LHB.Hits)
		}
		s.LoadsEliminated = int64(s.LHB.Hits)
		s.LHB.Misses = s.LHB.Lookups - s.LHB.Hits
		s.LHB.Allocs = min(nAtU("lhb_allocs"), s.LHB.Misses)
		s.LHB.Replacements = min(nAtU("lhb_replacements"), s.LHB.Allocs)
		s.LHB.Releases = min(nAtU("lhb_releases"), s.LHB.Allocs)
		s.LHB.Relays = nAtU("lhb_relays")
		s.RenameCount = min(nAt("renames"), s.TensorLoads)
		s.AllocCount = nAt("allocs")
	}
	s.L1Accesses = at("l1_accesses")
	s.L1Hits = min(at("l1_hits"), s.L1Accesses)
	s.L2Accesses = at("l2_accesses")
	s.L2Hits = min(at("l2_hits"), s.L2Accesses)
	s.DRAMLines = at("dram_lines")
	s.StoreLines = at("store_lines")
	s.MSHRMerges = at("mshr_merges")
	if cfg.Duplo {
		s.ServiceLines[sim.ServiceLHB] = nAt("svc_lhb")
	}
	s.ServiceLines[sim.ServiceL1] = at("svc_l1")
	s.ServiceLines[sim.ServiceL2] = at("svc_l2")
	s.ServiceLines[sim.ServiceDRAM] = at("svc_dram")
	return res, true
}

// targetIndex resolves a TargetNames entry; it panics on a typo, which the
// package's own tests exercise for every name used above.
func targetIndex(name string) int {
	for i, n := range TargetNames {
		if n == name {
			return i
		}
	}
	panic("predictor: unknown target " + name)
}

// fitFamily fits one family: a weighted least-squares solve per target,
// then gate metrics on the cycles target.
func fitFamily(fam string, ss []Sample) *FamilyModel {
	nf := len(FeatureNames)
	m := &FamilyModel{Family: fam, Weights: make([][]float64, len(TargetNames))}
	X := make([][]float64, len(ss))
	for i, s := range ss {
		X[i] = s.Features
	}
	for t := range TargetNames {
		y := make([]float64, len(ss))
		w := make([]float64, len(ss))
		for i, s := range ss {
			y[i] = s.Targets[t]
			// Relative weighting: the LS objective becomes squared
			// relative error, aligned with the MAPE gate. The floor keeps
			// zero-valued targets (Duplo counters on baseline runs) from
			// blowing the system up.
			w[i] = 1 / math.Max(math.Abs(y[i]), 1)
		}
		m.Weights[t] = solveWLS(X, y, w, nf)
	}
	// Duplo activity counters get a second, normalized fit: counts per
	// eligible A row load over the scale-free coverage features, with
	// uniform weights — every (layer, LHB point) cell contributes an O(1)
	// intensity, so no layer can buy objective by sacrificing another.
	var el []int
	for i, s := range ss {
		if s.Duplo && s.Eligible > 0 && len(s.Intensive) == len(IntensiveNames) {
			el = append(el, i)
		}
	}
	if len(el) > 0 {
		XI := make([][]float64, len(el))
		for j, i := range el {
			XI[j] = ss[i].Intensive
		}
		ones := make([]float64, len(el))
		for j := range ones {
			ones[j] = 1
		}
		m.NormWeights = make([][]float64, len(NormTargetNames))
		for t, name := range NormTargetNames {
			ti := targetIndex(name)
			y := make([]float64, len(el))
			for j, i := range el {
				y[j] = ss[i].Targets[ti] / ss[i].Eligible
			}
			m.NormWeights[t] = solveWLS(XI, y, ones, len(IntensiveNames))
		}
	}
	// Gate metrics on the cycles target.
	cycles := targetIndex("cycles")
	var off, on []int
	for i, s := range ss {
		if s.Duplo {
			on = append(on, i)
		} else {
			off = append(off, i)
		}
	}
	predAt := func(i int) float64 { return dot(m.Weights[cycles], ss[i].Features) }
	truthAt := func(i int) float64 { return ss[i].Targets[cycles] }
	m.All = metricsOver(allIdx(len(ss)), predAt, truthAt)
	m.Off = metricsOver(off, predAt, truthAt)
	m.On = metricsOver(on, predAt, truthAt)
	m.GatePass = gate(m.Off) && gate(m.On) && m.All.N > 0
	return m
}

// gate evaluates one subset against the thresholds. An empty subset is
// vacuously passing: a family with only Duplo-off samples (plain GEMM) is
// gated on what it was actually calibrated against.
func gate(m Metrics) bool {
	if m.N == 0 {
		return true
	}
	return m.MAPE <= GateMAPE && m.Pearson >= GatePearson
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// metricsOver computes MAPE / MaxAPE / Pearson r over a sample index
// subset. Pearson over fewer than 3 points, or over a near-constant
// subset (ground-truth relative spread below vacuousSpread), is vacuous
// and reported as 1 — correlation needs spread to mean anything, and on a
// flat target it degenerates into amplified noise even when every
// prediction is within a fraction of a percent. MAPE still gates those
// subsets, so accuracy is never ungated.
func metricsOver(idx []int, pred, truth func(i int) float64) Metrics {
	m := Metrics{N: len(idx)}
	if m.N == 0 {
		return m
	}
	var sp, st float64
	for _, i := range idx {
		ape := math.Abs(pred(i)-truth(i)) / math.Max(math.Abs(truth(i)), 1)
		m.MAPE += ape
		if ape > m.MaxAPE {
			m.MaxAPE = ape
		}
		sp += pred(i)
		st += truth(i)
	}
	m.MAPE /= float64(m.N)
	if m.N < 3 {
		m.Pearson = 1
		return m
	}
	mp, mt := sp/float64(m.N), st/float64(m.N)
	var cov, vp, vt float64
	for _, i := range idx {
		dp, dt := pred(i)-mp, truth(i)-mt
		cov += dp * dt
		vp += dp * dp
		vt += dt * dt
	}
	if vp == 0 || vt == 0 ||
		math.Sqrt(vt/float64(m.N)) < vacuousSpread*math.Max(math.Abs(mt), 1) {
		m.Pearson = 1
		return m
	}
	m.Pearson = cov / math.Sqrt(vp*vt)
	return m
}

// vacuousSpread is the ground-truth coefficient of variation below which
// a subset counts as constant for Pearson purposes (see metricsOver): a
// target moving less than 2% across the whole calibration sweep carries
// no correlation signal worth gating on.
const vacuousSpread = 0.02

// solveWLS solves the weighted least-squares problem min Σ w_i (x_i·β −
// y_i)² by normal equations with a tiny ridge term for numerical safety
// (features can be collinear — t_max coincides with one of its inputs on
// single-regime families).
func solveWLS(X [][]float64, y, w []float64, nf int) []float64 {
	a := make([][]float64, nf)
	for i := range a {
		a[i] = make([]float64, nf+1)
	}
	for s := range X {
		ws := w[s] * w[s]
		for i := 0; i < nf; i++ {
			xi := X[s][i]
			if xi == 0 {
				continue
			}
			for j := 0; j < nf; j++ {
				a[i][j] += ws * xi * X[s][j]
			}
			a[i][nf] += ws * xi * y[s]
		}
	}
	// Ridge scaled to the diagonal so it is negligible where the data has
	// signal and decisive where a feature is absent (all-zero column).
	var trace float64
	for i := 0; i < nf; i++ {
		trace += a[i][i]
	}
	ridge := 1e-10*trace/float64(nf) + 1e-12
	for i := 0; i < nf; i++ {
		a[i][i] += ridge
	}
	return gaussSolve(a, nf)
}

// gaussSolve runs Gaussian elimination with partial pivoting on the
// augmented matrix a (nf x nf+1). A vanishing pivot leaves that
// coefficient at zero (the ridge makes this effectively unreachable).
func gaussSolve(a [][]float64, nf int) []float64 {
	for col := 0; col < nf; col++ {
		piv := col
		for r := col + 1; r < nf; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		p := a[col][col]
		if p == 0 {
			continue
		}
		for r := col + 1; r < nf; r++ {
			f := a[r][col] / p
			if f == 0 {
				continue
			}
			for cc := col; cc <= nf; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
		}
	}
	beta := make([]float64, nf)
	for i := nf - 1; i >= 0; i-- {
		if a[i][i] == 0 {
			beta[i] = 0
			continue
		}
		sum := a[i][nf]
		for j := i + 1; j < nf; j++ {
			sum -= a[i][j] * beta[j]
		}
		beta[i] = sum / a[i][i]
	}
	return beta
}

func dot(w, x []float64) float64 {
	var s float64
	for i := range w {
		s += w[i] * x[i]
	}
	return s
}

// count rounds a predicted counter to a non-negative integer.
func count(v float64) int64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(math.Round(v))
}
