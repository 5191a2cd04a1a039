package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"duplo/internal/report"
)

// sweepWriteWindow is the per-event write deadline a streaming sweep
// slides forward: the stream may run arbitrarily long, but a client that
// absorbs nothing for this long is cut off.
const sweepWriteWindow = time.Minute

// SweepEvent is one NDJSON line of a GET /v1/sweeps/{id} response. The
// stream is: one "start", interleaved "progress" lines as cells finish,
// one "table" with the assembled figure, an optional "error" (partial
// tables still carry their ERR cells), and a final "done" with the
// sweep's execution counters.
type SweepEvent struct {
	Type  string `json:"type"` // start | progress | table | error | done
	Sweep string `json:"sweep,omitempty"`
	// Message is the progress line ("fig9 ResNet/C2 1024-entry done").
	Message string     `json:"message,omitempty"`
	Table   *TableJSON `json:"table,omitempty"`
	Problem *Problem   `json:"problem,omitempty"`
	// Done-event counters: how many of this sweep's cells it actually
	// simulated vs served warm from the disk store vs synthesized by the
	// calibrated predictor ("~"-marked cells) vs found in the daemon's
	// memo, already resolved by a job, an earlier sweep or this sweep.
	Execs     int64 `json:"execs,omitempty"`
	StoreHits int64 `json:"store_hits,omitempty"`
	Predicted int64 `json:"predicted,omitempty"`
	MemHits   int64 `json:"mem_hits,omitempty"`
}

// TableJSON is a report.Table in structured form.
type TableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	// Note carries the table's trailing annotation line (e.g. the
	// predicted-cells footer); empty for most tables.
	Note string `json:"note,omitempty"`
}

func tableJSON(t *report.Table) *TableJSON {
	return &TableJSON{Title: t.Title, Headers: t.Headers(), Rows: t.Rows(), Note: t.Note}
}

// handleSweepList returns the sweep registry ids.
func (s *Server) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sweeps []string `json:"sweeps"`
	}{s.runner.SweepIDs()})
}

// handleSweep runs one whole figure/ablation and streams progress as
// NDJSON. Each sweep runs on a session of the daemon's shared runner
// (experiments.Runner.Session): its context, progress sink, worker slots,
// counters and predictor state belong to this response, while the memo
// and disk store are the daemon's. Cells a job or an
// earlier sweep already resolved are memo hits (mem_hits), cells only the
// store holds are store hits, and nothing is re-simulated.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")

	// Sweep admission (Config.MaxSweeps): a sweep holds a worker-pool's
	// worth of CPU for minutes, so beyond the cap we shed deterministically
	// instead of thrashing every stream at once.
	if s.sweepSem != nil {
		select {
		case s.sweepSem <- struct{}{}:
			defer func() { <-s.sweepSem }()
		default:
			s.sweepsShed.Add(1)
			w.Header().Set("Retry-After", "5")
			writeProblem(w, http.StatusServiceUnavailable, "too many sweeps",
				fmt.Sprintf("all %d sweep slots busy; retry later", cap(s.sweepSem)))
			return
		}
	}

	// The sweep dies with the client connection or the daemon, whichever
	// ends first.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.ctx, cancel)
	defer stop()

	var emitMu sync.Mutex
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	headerWritten := false
	emit := func(ev SweepEvent) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if !headerWritten {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			headerWritten = true
		}
		// A sweep legitimately outlives any fixed http.Server.WriteTimeout;
		// what a hardened daemon bounds is *silence*. Sliding the deadline
		// at every event keeps a live stream exempt while a stalled client
		// still times out one window after the last successful write.
		rc.SetWriteDeadline(time.Now().Add(sweepWriteWindow)) //nolint:errcheck // best-effort: not every ResponseWriter supports deadlines
		json.NewEncoder(w).Encode(ev)                         //nolint:errcheck // stream best-effort
		if flusher != nil {
			flusher.Flush()
		}
	}

	rr := s.runner.Session(ctx, func(line string) { emit(SweepEvent{Type: "progress", Message: line}) })
	sweep, ok := rr.Sweep(id)
	if !ok {
		writeProblem(w, http.StatusNotFound, "unknown sweep",
			"known sweeps: "+strings.Join(rr.SweepIDs(), ", "))
		return
	}

	s.sweepsActive.Add(1)
	defer func() {
		s.sweepsActive.Add(-1)
		s.sweepExecs.Add(rr.Execs())
		s.sweepPredicted.Add(rr.Predicted())
	}()

	emit(SweepEvent{Type: "start", Sweep: id})
	tbl, err := sweep.Run()
	if tbl != nil {
		emit(SweepEvent{Type: "table", Sweep: id, Table: tableJSON(tbl)})
	}
	if err != nil {
		emit(SweepEvent{Type: "error", Sweep: id, Problem: simProblem(err)})
	}
	cs := rr.CacheStats()
	emit(SweepEvent{Type: "done", Sweep: id, Execs: cs.Execs, StoreHits: cs.StoreHits, Predicted: cs.Predicted, MemHits: cs.MemHits})
}
