package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duplo/internal/predictor"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// TestCalibrationGate is the enforced accuracy contract from ISSUE 7 /
// DESIGN.md §9: fitting the analytical model against cycle-sim ground
// truth on the Fig. 9 workloads must reach per-family MAPE <= 15% and
// Pearson r >= 0.95 on the cycles target, on both the Duplo-off and
// Duplo-on sample subsets. CI runs this under the race detector (the
// `predict` job), so it uses the Quick scale.
func TestCalibrationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(QuickOptions())
	cal, err := r.Calibrate(true)
	if err != nil {
		t.Fatal(err)
	}
	fams := cal.FamilyList()
	if len(fams) == 0 {
		t.Fatal("calibration produced no family models")
	}
	for _, m := range fams {
		t.Logf("family %-10s N=%3d  all: MAPE %5.1f%% r %.3f max %5.1f%%  off: MAPE %5.1f%% r %.3f  on: MAPE %5.1f%% r %.3f",
			m.Family, m.All.N, 100*m.All.MAPE, m.All.Pearson, 100*m.All.MaxAPE,
			100*m.Off.MAPE, m.Off.Pearson, 100*m.On.MAPE, m.On.Pearson)
		if m.Off.MAPE > predictor.GateMAPE || m.On.MAPE > predictor.GateMAPE {
			t.Errorf("family %s: MAPE gate failed (off %.3f, on %.3f > %.2f)",
				m.Family, m.Off.MAPE, m.On.MAPE, predictor.GateMAPE)
		}
		if m.Off.Pearson < predictor.GatePearson || m.On.Pearson < predictor.GatePearson {
			t.Errorf("family %s: Pearson gate failed (off %.3f, on %.3f < %.2f)",
				m.Family, m.Off.Pearson, m.On.Pearson, predictor.GatePearson)
		}
		if !m.GatePass {
			t.Errorf("family %s: GatePass false", m.Family)
		}
	}
	if !cal.GatePass() {
		t.Error("calibration gate failed overall")
	}
}

// TestPredictAllMarksCells checks the visibility contract: under
// predict-all every predicted cell carries the "~" marker and the table
// grows the max-predicted-error footer, with no ERR cells.
func TestPredictAllMarksCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := tinyOptions()
	opts.Predictor = PredictAll
	r := NewRunner(opts)
	tb, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if strings.Contains(out, errCell) {
		t.Errorf("predict-all fig9 has ERR cells:\n%s", out)
	}
	if !strings.Contains(out, predictedMark) {
		t.Errorf("predict-all fig9 has no predicted marker:\n%s", out)
	}
	if !strings.Contains(out, "max predicted error") {
		t.Errorf("predict-all fig9 missing the predicted-error footer:\n%s", out)
	}
	if r.Predicted() == 0 {
		t.Error("predict-all fig9 predicted no cells")
	}
	// The fit itself simulated the calibration grid, so execs is exactly
	// the calibration set; fig9's own cells must all come from the
	// predictor or the calibration-warmed memo tier.
	cs := r.CacheStats()
	t.Logf("cache stats: %+v", cs)
	if cs.Predicted == 0 {
		t.Error("CacheStats.Predicted is zero after a predict-all sweep")
	}
}

// TestPredictedNeverPersisted: predicted results must not reach the disk
// store — only ground-truth simulations persist.
func TestPredictedNeverPersisted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOptions()
	opts.Predictor = PredictAll
	opts.Store = st
	r := NewRunner(opts)
	if _, err := r.Fig9(); err != nil {
		t.Fatal(err)
	}
	if r.Predicted() == 0 {
		t.Fatal("nothing predicted; test is vacuous")
	}
	execs := r.Execs()
	c := st.Counters()
	if c.Puts > execs {
		t.Errorf("store has %d puts but only %d ground-truth execs — a predicted result was persisted", c.Puts, execs)
	}
}

// TestCalibrationArtifactWarmLoad: a second runner sharing the store
// directory must load the persisted calibration instead of refitting —
// its predict-all sweep simulates nothing at all.
func TestCalibrationArtifactWarmLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	opts := tinyOptions()
	opts.Predictor = PredictAll
	opts.Store = open()
	cold := NewRunner(opts)
	tb1, err := cold.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Execs() == 0 {
		t.Fatal("cold runner simulated nothing; fit cannot have run")
	}
	// Artifact must exist under <store>/calibration/.
	matches, _ := filepath.Glob(filepath.Join(dir, "calibration", "*.json"))
	if len(matches) != 1 {
		t.Fatalf("want 1 calibration artifact, got %v", matches)
	}

	opts2 := tinyOptions()
	opts2.Predictor = PredictAll
	opts2.Store = open()
	warm := NewRunner(opts2)
	tb2, err := warm.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Execs() != 0 {
		t.Errorf("warm runner simulated %d times; want 0 (artifact + store warm)", warm.Execs())
	}
	if tb1.String() != tb2.String() {
		t.Errorf("warm predict-all table differs from cold:\n%s\n---\n%s", tb1, tb2)
	}
}

// TestCalibrationArtifactKeyMismatch: an artifact fit at one scale must
// not be loaded by a runner at another scale (the key embeds the config).
func TestCalibrationArtifactKeyMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	path := filepath.Join(t.TempDir(), "calib.json")
	opts := tinyOptions()
	opts.CalibrationPath = path
	r := NewRunner(opts)
	if _, err := r.Calibrate(true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	opts2 := tinyOptions()
	opts2.MaxCTAs = opts.MaxCTAs * 2 // different scale, same path
	opts2.CalibrationPath = path
	r2 := NewRunner(opts2)
	if _, err := predictor.Load(path, r2.CalibrationKey()); err == nil {
		t.Error("Load accepted an artifact fit under a different config")
	}
}

// TestFigCalibrateSweep smoke-checks the `-exp calibrate` report.
func TestFigCalibrateSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(tinyOptions())
	tb, err := r.FigCalibrate()
	if err != nil {
		t.Fatalf("calibrate sweep failed (gate?): %v\n%s", err, tb)
	}
	out := tb.String()
	for _, want := range []string{"Family", "MAPE", "Gate", "pass", "gate: MAPE"} {
		if !strings.Contains(out, want) {
			t.Errorf("calibrate report missing %q:\n%s", want, out)
		}
	}
	if workload.AllLayers() == nil {
		t.Fatal("no layers")
	}
}
