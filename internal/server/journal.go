package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"sync"
)

// Journal is duploserved's append-only JSONL job journal (DESIGN.md §12):
// one "start" line when a job is accepted, one "end" line when it
// finishes. A daemon that dies mid-job leaves a start without an end;
// reopening the journal turns every such orphan into an "interrupted"
// tombstone, so a restarted daemon answers GETs for those ids with a
// typed interrupted problem instead of a 404 that looks like the client
// imagined the job.
//
// Crash-safety model: entries are single lines, appended. A SIGKILL can
// tear at most the final line, and replay skips lines that do not parse —
// losing one "start" record, never corrupting the rest. Reopening
// compacts the file down to the live tombstones, so the journal's size is
// bounded by interrupted jobs, not by traffic.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string

	interrupted map[string]RunRequest
	maxSeq      int64
}

// journalEntry is one JSONL line.
type journalEntry struct {
	Op     string      `json:"op"` // start | end | interrupted
	ID     string      `json:"id"`
	Status string      `json:"status,omitempty"`  // end: done | failed
	Req    *RunRequest `json:"request,omitempty"` // start | interrupted
}

// OpenJournal replays path (which need not exist), compacts it to the
// interrupted-job tombstones, and reopens it for appending. The returned
// journal reports the ids found interrupted and the highest job sequence
// number ever issued, so the server resumes numbering without collisions.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, interrupted: make(map[string]RunRequest)}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	started := make(map[string]RunRequest)
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if json.Unmarshal(line, &e) != nil {
			// A torn trailing line from a hard kill — or any corrupt
			// line — is skipped, not fatal: the journal is a reporting
			// aid, losing one record beats refusing to boot.
			continue
		}
		switch e.Op {
		case "start":
			if e.Req != nil {
				started[e.ID] = *e.Req
			}
		case "end":
			delete(started, e.ID)
		case "interrupted":
			if e.Req != nil {
				j.interrupted[e.ID] = *e.Req
			}
		}
		if n, ok := jobSeq(e.ID); ok && n > j.maxSeq {
			j.maxSeq = n
		}
	}
	// Unmatched starts are this boot's newly interrupted jobs; they join
	// tombstones from earlier restarts (a job stays reportable until the
	// journal is deleted, however many times the daemon bounces).
	for id, rq := range started {
		j.interrupted[id] = rq
	}
	if err := j.compact(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return j, nil
}

// compact rewrites the journal as just the interrupted tombstones
// (atomically: temp + rename), in id order for reproducible bytes.
func (j *Journal) compact() error {
	ids := make([]string, 0, len(j.interrupted))
	for id := range j.interrupted {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		rq := j.interrupted[id]
		line, err := json.Marshal(journalEntry{Op: "interrupted", ID: id, Req: &rq})
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := j.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Interrupted returns the jobs found in flight at the last crash, keyed
// by id. The map is the journal's own; the server reads it only.
func (j *Journal) Interrupted() map[string]RunRequest { return j.interrupted }

// MaxSeq returns the highest job sequence number the journal has seen
// (0 for a fresh journal).
func (j *Journal) MaxSeq() int64 { return j.maxSeq }

// Start records a job acceptance.
func (j *Journal) Start(id string, rq RunRequest) {
	j.append(journalEntry{Op: "start", ID: id, Req: &rq})
}

// End records a job's terminal state ("done" or "failed").
func (j *Journal) End(id, status string) {
	j.append(journalEntry{Op: "end", ID: id, Status: status})
}

// append writes one line. Best-effort by design: a full disk must not
// fail job submission — the journal degrades to under-reporting, the
// store and memo tiers still hold the results.
func (j *Journal) append(e journalEntry) {
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Write(line) //nolint:errcheck // best-effort, see above
	}
}

// Close closes the append handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// jobID formats a job sequence number as its external id.
func jobID(seq int64) string { return fmt.Sprintf("r%06d", seq) }

// jobSeq parses a job id. Only the canonical jobID spelling parses, so
// r1, r0000001 or r+1 never alias an issued id (ok is false for them).
func jobSeq(id string) (seq int64, ok bool) {
	if len(id) < 2 || id[0] != 'r' {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n < 1 || jobID(n) != id {
		return 0, false
	}
	return n, true
}
