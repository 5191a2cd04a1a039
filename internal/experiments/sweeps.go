package experiments

import "duplo/internal/report"

// Sweep is one named experiment — a whole figure or table reproduction —
// bound to a Runner. The registry below is the single index shared by
// `duploexp -exp <id>` and duploserved's `GET /v1/sweeps/{id}`, so a new
// experiment becomes servable by being added here once.
type Sweep struct {
	// ID is the CLI/URL name ("fig9", "table2", "energy", …).
	ID string
	// Run produces the table. On partial failure it still returns the
	// table (failed cells render "ERR") alongside the error.
	Run func() (*report.Table, error)
}

// Sweeps returns every experiment in the paper's presentation order,
// bound to r.
func (r *Runner) Sweeps() []Sweep {
	static := func(build func() *report.Table) func() (*report.Table, error) {
		return func() (*report.Table, error) { return build(), nil }
	}
	return []Sweep{
		{"table1", static(Table1)},
		{"table3", static(Table3)},
		{"table2", Table2},
		{"fig2", static(Fig2)},
		{"limits", static(Limits)},
		{"fig3", static(Fig3)},
		{"fig9", r.Fig9},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"fig12", r.Fig12},
		{"fig13", r.Fig13},
		{"fig14", r.Fig14},
		{"energy", r.EnergyArea},
		{"latency", r.AblationLatency},
		{"smem", r.AblationSharedMem},
		{"cache", r.AblationCacheScaling},
		{"evict", r.AblationEviction},
		{"index", r.AblationIndexing},
		{"calibrate", r.FigCalibrate},
		{"cluster", r.Cluster},
	}
}

// Sweep looks one experiment up by id.
func (r *Runner) Sweep(id string) (Sweep, bool) {
	for _, s := range r.Sweeps() {
		if s.ID == id {
			return s, true
		}
	}
	return Sweep{}, false
}

// SweepIDs returns the registry's ids in order (for usage/doc strings and
// the server's sweep listing).
func (r *Runner) SweepIDs() []string {
	sweeps := r.Sweeps()
	ids := make([]string, len(sweeps))
	for i, s := range sweeps {
		ids[i] = s.ID
	}
	return ids
}
