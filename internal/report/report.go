// Package report renders aligned text tables and CSV series shared by the
// experiment binaries and benches. Every table/figure reproduction prints
// through this package so outputs are uniform and diffable.
package report

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Sink serializes progress lines from concurrent producers (the parallel
// experiment engine emits per-layer progress from worker goroutines). A nil
// *Sink is a valid no-op sink.
type Sink struct {
	mu   sync.Mutex
	emit func(string)
}

// NewSink wraps an emit function in a concurrency-safe sink.
func NewSink(emit func(string)) *Sink {
	if emit == nil {
		return nil
	}
	return &Sink{emit: emit}
}

// Println emits one message; safe for concurrent use, no-op on a nil sink.
func (s *Sink) Println(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(msg)
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title string
	// Note, when non-empty, renders as one trailing line under the rows
	// (e.g. the predicted-cell legend with the per-table max predicted
	// error). It is omitted from CSV output — cells carry their own
	// markers there — but carried on the JSON export (duploserved).
	Note    string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowCells appends pre-formatted cells.
func (t *Table) AddRowCells(cells []string) { t.rows = append(t.rows, cells) }

// Headers returns a copy of the column headers (for structured exports —
// duploserved streams tables as JSON rather than pre-rendered text).
func (t *Table) Headers() []string {
	return append([]string(nil), t.headers...)
}

// Rows returns a copy of the accumulated rows with their pre-formatted
// cells, in insertion order.
func (t *Table) Rows() [][]string {
	rows := make([][]string, len(t.rows))
	for i, r := range t.rows {
		rows[i] = append([]string(nil), r...)
	}
	return rows
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "=== %s ===\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(t.headers))
		for i := range t.headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintln(w, t.Note)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CSV writes the table as comma-separated values (for plotting).
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.headers, ","))
	for _, r := range t.rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Pct formats a fraction as a signed percentage ("+12.3%").
func Pct(f float64) string { return fmt.Sprintf("%+.1f%%", 100*f) }

// PctU formats a fraction as an unsigned percentage ("12.3%").
func PctU(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// Ratio formats a speedup-style multiplier ("13.5x"); zero renders as "n/a"
// (the missing bars of Fig. 2/3).
func Ratio(f float64) string {
	if f == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", f)
}
