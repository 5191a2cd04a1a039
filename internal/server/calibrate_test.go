package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"testing"

	"duplo/internal/experiments"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// predictOpts is quickOpts restricted to one layer so the calibration
// grid (layers x LHB points x duplo off/on) fits in a test budget.
func predictOpts(t *testing.T) experiments.Options {
	t.Helper()
	l, err := workload.Find("ResNet", "C2")
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.Layers = []workload.Layer{l}
	return opts
}

// TestServerCalibrateAndStatsz pins the daemon's predictor surface:
// /statsz reports the configured mode before any calibration, POST
// /v1/calibrate fits and returns the per-family report, and /statsz then
// shows the installed calibration. A predict-all sweep afterwards serves
// predicted cells (counted in its done event and in SweepPredicted),
// loading the artifact the calibrate call persisted instead of refitting.
func TestServerCalibrateAndStatsz(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := predictOpts(t)
	opts.Predictor = experiments.PredictAll
	_, hs := newTestServer(t, opts, st)

	var sz StatsZ
	if code := getJSON(t, hs.URL+"/statsz", &sz); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if sz.Predictor == nil || sz.Predictor.Mode != string(experiments.PredictAll) {
		t.Fatalf("statsz predictor before calibrate: %+v", sz.Predictor)
	}
	if sz.Predictor.Calibrated {
		t.Fatal("statsz reports calibrated before any calibrate call")
	}

	var cr CalibrateResponse
	if code := postJSON(t, hs.URL+"/v1/calibrate", nil, &cr); code != http.StatusOK {
		t.Fatalf("calibrate: status %d", code)
	}
	if cr.Key == "" || len(cr.Families) == 0 {
		t.Fatalf("calibrate response %+v, want a key and family reports", cr)
	}
	for _, f := range cr.Families {
		if f.Family == "" || f.N == 0 {
			t.Fatalf("calibrate family report %+v, want a named family with samples", f)
		}
	}

	if code := getJSON(t, hs.URL+"/statsz", &sz); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	p := sz.Predictor
	if p == nil || !p.Calibrated || len(p.Families) != len(cr.Families) {
		t.Fatalf("statsz predictor after calibrate: %+v", p)
	}
	if p.Gate["mape"] == 0 || p.Gate["pearson"] == 0 {
		t.Fatalf("statsz predictor gate thresholds missing: %+v", p.Gate)
	}

	resp, err := http.Get(hs.URL + "/v1/sweeps/fig10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var done *SweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Type == "done" {
			done = &ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil || done.Predicted == 0 {
		t.Fatalf("predict-all sweep done event %+v, want predicted cells", done)
	}
	// The calibrate call already simulated (and stored) the calibration
	// grid; the sweep's non-predicted cells must come back warm, not
	// re-simulated.
	if done.Execs != 0 {
		t.Fatalf("predict-all sweep after calibrate executed %d simulations, want 0 (warm store + predictor)", done.Execs)
	}

	if code := getJSON(t, hs.URL+"/statsz", &sz); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if sz.SweepPredicted != done.Predicted {
		t.Fatalf("statsz sweep_predicted %d, want %d", sz.SweepPredicted, done.Predicted)
	}
}

// TestServerPredictorOffByDefault pins the conservative default: a daemon
// without -predict reports mode off and no calibration.
func TestServerPredictorOffByDefault(t *testing.T) {
	_, hs := newTestServer(t, quickOpts(), nil)
	var sz StatsZ
	if code := getJSON(t, hs.URL+"/statsz", &sz); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if sz.Predictor == nil || sz.Predictor.Mode != string(experiments.PredictorOff) {
		t.Fatalf("statsz predictor: %+v, want mode off", sz.Predictor)
	}
	if sz.Predictor.Calibrated || sz.SweepPredicted != 0 {
		t.Fatalf("fresh off-mode daemon reports predictor activity: %+v", sz)
	}
}
