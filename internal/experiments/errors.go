package experiments

import (
	"fmt"
	"strings"

	"duplo/internal/report"
	"duplo/internal/workload"
)

// errCell is what a failed sweep cell renders as. Failure identity is
// per-task, not per-schedule, so a partial table is byte-identical at
// every worker count.
const errCell = "ERR"

// layerCol is one column of a per-layer table: its header, how a value
// renders, and the footer aggregate over the column's values (nil leaves
// the footer cell blank).
type layerCol struct {
	header string
	cell   func(float64) string
	agg    func([]float64) float64
}

// taskCols gives each of a layer's tasks one column, headed headers[i].
func taskCols(headers []string, cell func(float64) string, agg func([]float64) float64) []layerCol {
	cols := make([]layerCol, len(headers))
	for i, h := range headers {
		cols[i] = layerCol{h, cell, agg}
	}
	return cols
}

// layerTable runs a layers x tasks sweep on the worker pool and renders
// it one row per layer, in Table I order, under a footer row labelled
// foot. Task ti of a layer computes the values of columns [ti*w,
// (ti+1)*w), where w = len(cols)/len(tasks), and predErrOf's predicted
// error of the runs behind them. tasks names a layer's tasks in progress
// lines ("<id> <layer> <task> done") and failed-cell labels
// ("ResNet/C2/1024-entry"); nil runs one task per layer, named by the
// layer alone.
//
// Every per-layer table shares these rules: a failed task's cells render
// errCell; a footer over a column holding a failed cell renders errCell
// (a silently partial gmean would masquerade as the paper's headline
// number); predicted cells, and a footer over any of them, carry
// predictedMark, and the table gets predNote's legend. The *SweepError
// names the failed tasks in task order, so a degraded table and its
// error are byte-identical at every worker count.
func (r *Runner) layerTable(id, title, foot string, tasks []string, cols []layerCol,
	run func(l workload.Layer, ti int) ([]float64, float64, error)) (*report.Table, error) {
	layers := r.opts.layers()
	nt := max(len(tasks), 1)
	w := len(cols) / nt
	// name names task i: its layer, then its task name after sep.
	name := func(i int, sep string) string {
		if tasks == nil {
			return layers[i/nt].FullName()
		}
		return layers[i/nt].FullName() + sep + tasks[i%nt]
	}
	vals := make([][]float64, len(layers)*nt)
	preds := make([]float64, len(vals))
	errs := r.fanOutAll(len(vals), func(i int) error {
		v, pe, err := run(layers[i/nt], i%nt)
		if err != nil {
			return err
		}
		vals[i], preds[i] = v, pe
		r.progress("%s %s done", id, name(i, " "))
		return nil
	})

	headers := []string{"Layer"}
	for _, c := range cols {
		headers = append(headers, c.header)
	}
	t := report.NewTable(title, headers...)
	colVals := make([][]float64, len(cols))
	colErr := make([]bool, len(cols))
	colPred := make([]bool, len(cols))
	var cellPreds []float64
	for li, l := range layers {
		row := []string{l.FullName()}
		for c, col := range cols {
			i := li*nt + c/w
			if errs[i] != nil {
				colErr[c] = true
				row = append(row, errCell)
				continue
			}
			v := vals[i][c%w]
			colVals[c] = append(colVals[c], v)
			colPred[c] = colPred[c] || preds[i] >= 0
			cellPreds = append(cellPreds, preds[i])
			row = append(row, markPred(col.cell(v), preds[i]))
		}
		t.AddRowCells(row)
	}
	footer := []string{foot}
	for c, col := range cols {
		if col.agg == nil {
			footer = append(footer, "")
			continue
		}
		footer = append(footer, footerCell(colErr[c], colPred[c], col.cell(col.agg(colVals[c]))))
	}
	t.AddRowCells(footer)
	predNote(t, cellPreds)
	return t, sweepError(errs, func(i int) string { return name(i, "/") })
}

// footerCell renders an aggregate footer cell: errCell when any
// contributing cell failed, else the rendered aggregate, marked when any
// contributing cell was predicted.
func footerCell(failed, predicted bool, s string) string {
	if failed {
		return errCell
	}
	if predicted {
		return s + predictedMark
	}
	return s
}

// SweepError aggregates the per-cell failures of one experiment sweep.
// The experiment still returns its table — failed cells render "ERR" —
// so a single livelocked or cancelled configuration degrades one figure
// cell instead of aborting the whole invocation.
type SweepError struct {
	Cells []string // human-readable labels of the failed cells, task order
	Errs  []error  // matching errors, same order
}

// maxSweepErrorCells bounds how many per-cell failures Error() spells out;
// the rest are summarized. Unwrap still exposes every error.
const maxSweepErrorCells = 6

// Error lists the failed cells deterministically (task order, not
// completion order) so the same failure renders the same message at every
// worker count. The experiment name is deliberately omitted — callers
// (duploexp's per-experiment loop) already prefix it.
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d of the sweep's cells failed", len(e.Cells))
	n := len(e.Cells)
	if n > maxSweepErrorCells {
		n = maxSweepErrorCells
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\n  %s: %v", e.Cells[i], e.Errs[i])
	}
	if len(e.Cells) > n {
		fmt.Fprintf(&b, "\n  ... and %d more", len(e.Cells)-n)
	}
	return b.String()
}

// Unwrap exposes every cell error, so errors.Is(err, context.Canceled)
// answers whether any cell was cancelled.
func (e *SweepError) Unwrap() []error { return e.Errs }

// sweepError folds a fanOutAll error slice into a *SweepError, labelling
// each failed slot with label(i). It returns nil when every slot is nil.
func sweepError(errs []error, label func(i int) string) error {
	se := &SweepError{}
	for i, err := range errs {
		if err != nil {
			se.Cells = append(se.Cells, label(i))
			se.Errs = append(se.Errs, err)
		}
	}
	if len(se.Errs) == 0 {
		return nil
	}
	return se
}
