package server

import (
	"net/http"

	"duplo/internal/experiments"
	"duplo/internal/predictor"
)

// PredictorStatsZ is the /statsz predictor block: the configured mode and
// the installed calibration's per-family fit quality.
type PredictorStatsZ struct {
	// Mode is the daemon's configured predictor mode (off | predict-all).
	Mode string `json:"mode"`
	// Calibrated reports whether a calibration is installed on the shared
	// runner (via POST /v1/calibrate or a predicted run); GatePass whether
	// every fitted family cleared the gate.
	Calibrated bool               `json:"calibrated"`
	GatePass   bool               `json:"gate_pass,omitempty"`
	Families   []FamilyStatsZ     `json:"families,omitempty"`
	Gate       map[string]float64 `json:"gate,omitempty"`
}

// FamilyStatsZ summarizes one family model's calibration fit.
type FamilyStatsZ struct {
	Family      string  `json:"family"`
	N           int     `json:"n"`
	MAPE        float64 `json:"mape"`
	Pearson     float64 `json:"pearson"`
	MAPEOff     float64 `json:"mape_off"`
	MAPEOn      float64 `json:"mape_on"`
	Uncertainty float64 `json:"uncertainty"`
	GatePass    bool    `json:"gate_pass"`
}

// predictorStatsZ snapshots the shared runner's predictor state.
func (s *Server) predictorStatsZ() *PredictorStatsZ {
	p := &PredictorStatsZ{Mode: string(s.opts.Predictor)}
	if p.Mode == "" {
		p.Mode = string(experiments.PredictorOff)
	}
	cal := s.runner.Calibration()
	if cal == nil {
		return p
	}
	p.Calibrated = true
	p.GatePass = cal.GatePass()
	p.Gate = map[string]float64{"mape": predictor.GateMAPE, "pearson": predictor.GatePearson}
	for _, m := range cal.FamilyList() {
		p.Families = append(p.Families, familyStatsZ(m))
	}
	return p
}

func familyStatsZ(m *predictor.FamilyModel) FamilyStatsZ {
	return FamilyStatsZ{
		Family:      m.Family,
		N:           m.All.N,
		MAPE:        m.All.MAPE,
		Pearson:     m.All.Pearson,
		MAPEOff:     m.Off.MAPE,
		MAPEOn:      m.On.MAPE,
		Uncertainty: m.Uncertainty(),
		GatePass:    m.GatePass,
	}
}

// CalibrateResponse is the POST /v1/calibrate body.
type CalibrateResponse struct {
	Key      string         `json:"key"`
	GatePass bool           `json:"gate_pass"`
	Families []FamilyStatsZ `json:"families"`
}

// handleCalibrate fits (or loads) the shared runner's calibration against
// cycle-sim ground truth and returns the fit report. With ?force=1 a
// valid persisted artifact is ignored and the fit reruns; the default
// load-or-fit path is idempotent and cheap on a warm daemon — this is how
// an operator pre-warms the predictor before pointing clients at it. The
// fit simulates the calibration grid through the normal store-warmed
// path, so it shares ground truth with every other client.
func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	force := r.URL.Query().Get("force") == "1" || r.URL.Query().Get("force") == "true"
	cal, err := s.runner.Calibrate(force)
	if err != nil {
		writeProblem(w, http.StatusInternalServerError, "calibration failed", err.Error())
		return
	}
	resp := CalibrateResponse{Key: cal.Key, GatePass: cal.GatePass()}
	for _, m := range cal.FamilyList() {
		resp.Families = append(resp.Families, familyStatsZ(m))
	}
	writeJSON(w, http.StatusOK, resp)
}
