// Package store persists simulation results on disk, content-addressed by
// the experiments runner's cache key, so the (kernel, config) → Result
// mapping survives process exit. The in-memory singleflight cache (PR 1)
// dedups within one process; this store is the second tier underneath it:
// one warm directory serves any number of later invocations — and any
// number of duploserved clients — with zero redundant simulation.
//
// Layout: each record lives at <dir>/<hh>/<rest-of-sha256(key)>.json where
// hh is the first two hex digits of the key hash (a two-level fan-out so
// directories stay small). The file is a versioned JSON envelope carrying
// the payload's own SHA-256, so truncation, bit flips and partial writes
// are detected — a corrupt record is counted, removed, and reported as a
// miss (the caller re-simulates; it never trusts a damaged file). Writes
// go through a temp file plus atomic rename, so concurrent writers and
// crashed processes leave either the old record or the new one, never a
// torn file. A record whose envelope Version differs from FormatVersion
// is ignored cleanly (miss, no corruption count, file left in place for
// the older/newer binary that owns it).
//
// Only successful runs are persisted: the runner's failed-run eviction
// semantics (PR 5) extend to this tier by construction, because a failed
// simulation never reaches Put.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"duplo/internal/sim"
)

// FaultInjector is the deterministic fault-injection seam (DESIGN.md
// §12): internal/fault.Injector implements it, and it is nil — every
// check compiled to one pointer test — on the production path.
type FaultInjector interface {
	// ReadFault, when non-nil, fails the lookup with a transient I/O
	// error before the disk is touched (the record stays intact).
	ReadFault(key string) error
	// WriteFault, when non-nil, fails the persist before bytes land.
	WriteFault(key string) error
	// MangleRead corrupts a successfully read record's raw bytes (the
	// checksum must catch it; the mangled copy must never be served).
	MangleRead(raw []byte) ([]byte, bool)
	// IODelay adds latency to a disk operation (0 = none).
	IODelay() time.Duration
}

// OpError is the typed store failure: which operation failed, on which
// key, and why. Transient errors (I/O faults the resilience layer may
// retry) and permanent ones (a read-only directory) share the shape;
// Unwrap exposes the cause for errors.Is classification.
type OpError struct {
	Op  string // "get" | "put"
	Key string
	Err error
}

func (e *OpError) Error() string { return fmt.Sprintf("store: %s %q: %v", e.Op, e.Key, e.Err) }

// Unwrap exposes the underlying cause.
func (e *OpError) Unwrap() error { return e.Err }

// FormatVersion is bumped whenever the persisted encoding changes
// incompatibly (a field changes meaning, the checksum scheme changes, …).
// Records carrying any other version are ignored, never reinterpreted.
const FormatVersion = 1

// Record is the persisted subset of a sim.Result: the full Stats block
// plus the CTA accounting. The Kernel and Config are deliberately not
// serialized — they are reconstructed by the caller from the same request
// that produced the cache key, which is exactly what the key's
// content-addressing guarantees is possible.
type Record struct {
	Stats         sim.Stats `json:"stats"`
	SimulatedCTAs int       `json:"simulated_ctas"`
	TotalCTAs     int       `json:"total_ctas"`
}

// RecordOf extracts the persisted subset of a result.
func RecordOf(res sim.Result) Record {
	return Record{Stats: res.Stats, SimulatedCTAs: res.SimulatedCTAs, TotalCTAs: res.TotalCTAs}
}

// Result rehydrates a full sim.Result by reattaching the kernel and config
// the caller rebuilt from the run request.
func (r Record) Result(k *sim.Kernel, cfg sim.Config) sim.Result {
	return sim.Result{Stats: r.Stats, SimulatedCTAs: r.SimulatedCTAs, TotalCTAs: r.TotalCTAs,
		Kernel: k, Config: cfg}
}

// envelope is the on-disk frame around a Record (and around a predictor
// calibration artifact): the format version, the full (unhashed) key for
// collision/tamper detection, and the payload checksum.
type envelope struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// ErrVersionSkew reports a frame written under another format version. It
// is not damage: a reader leaves the file for the binary that owns it.
var ErrVersionSkew = errors.New("format version skew")

// WriteFrame writes payload's JSON to path inside the envelope, stamped
// with version and key, atomically: a temp file in path's directory
// (created if needed) is renamed into place, so a concurrent reader sees
// the old file or the new one, never a torn write. Each caller passes its
// own FormatVersion, so store records and predictor artifacts version
// independently.
func WriteFrame(path string, version int, key string, payload any) error {
	p, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	// Compact: MarshalIndent would re-indent the embedded payload and
	// break the checksum's byte-for-byte contract.
	data, err := json.Marshal(envelope{Version: version, Key: key, Sum: payloadSum(p), Payload: p})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// DecodeFrame verifies one envelope read back from disk and returns its
// key and payload. The error wraps ErrVersionSkew when the frame carries
// a version other than version; any other error is damage (an
// undecodable envelope or a payload checksum mismatch). The caller checks
// the key and decodes the payload.
func DecodeFrame(raw []byte, version int) (key string, payload json.RawMessage, err error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return "", nil, fmt.Errorf("corrupt envelope: %w", err)
	}
	if env.Version != version {
		return "", nil, fmt.Errorf("%w: version %d, want %d", ErrVersionSkew, env.Version, version)
	}
	if env.Sum != payloadSum(env.Payload) {
		return "", nil, errors.New("payload checksum mismatch")
	}
	return env.Key, env.Payload, nil
}

// Counters is a point-in-time snapshot of store activity (see Stats).
type Counters struct {
	Hits int64 `json:"hits"`
	// Misses counts lookups that found no usable record for any reason
	// (absent, corrupt, or version-skewed) — Hits+Misses is the lookup
	// total.
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// PutErrors counts failed persists (the simulation result is still
	// returned to the caller; the store is best-effort on the write side).
	PutErrors int64 `json:"put_errors"`
	// ReadErrors counts transient lookup failures — I/O errors other than
	// "absent" (and injected read faults). The record is left on disk:
	// unlike corruption, a transient error says nothing about the bytes,
	// and the resilience layer retries instead of destroying warmth.
	ReadErrors int64 `json:"read_errors"`
	// Corruptions counts records that failed envelope decode, key match,
	// checksum, or payload decode; each was removed so the slot heals on
	// the re-simulation's Put.
	Corruptions int64 `json:"corruptions"`
	// VersionSkips counts records ignored because their envelope Version
	// differs from FormatVersion (left on disk untouched).
	VersionSkips int64 `json:"version_skips"`
}

// Store is an on-disk content-addressed result store rooted at one
// directory. All methods are safe for concurrent use by any number of
// goroutines and cooperating processes sharing the directory.
type Store struct {
	dir string

	// faults is the fault-injection seam; nil in production. Set before
	// the store is shared across goroutines (SetFaults is not synchronized
	// against in-flight operations).
	faults FaultInjector
	// res is the optional retry + circuit-breaker layer (EnableResilience);
	// nil keeps the raw single-attempt semantics.
	res *resilience

	hits, misses, puts, putErrors, readErrors, corruptions, versionSkips atomic.Int64
}

// Open roots a store at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns where the record for key lives (whether or not it exists):
// the key is hashed, never trusted as a path component.
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h[2:]+".json")
}

// SetFaults installs the fault-injection hooks (nil = none). Install
// before sharing the store across goroutines.
func (s *Store) SetFaults(h FaultInjector) { s.faults = h }

// Get looks key up. ok is false on any miss — absent, version-skewed,
// corrupt (counted separately; a corrupt file is removed so the slot heals
// on the next Put), or a transient read error. A false return always means
// "re-simulate"; Get never returns a record it could not fully verify.
// With resilience enabled (EnableResilience) transient errors are retried
// and an open breaker degrades to a clean miss.
func (s *Store) Get(key string) (Record, bool) {
	if s.res != nil {
		return s.res.lookup(key)
	}
	rec, ok, _ := s.lookup(key)
	return rec, ok
}

// lookup is the raw single-attempt lookup. A non-nil error means the disk
// op itself failed (I/O error, injected fault) and the record — if any —
// is still intact on disk, so the caller may retry; resilience does. ok is
// false whenever err is non-nil.
func (s *Store) lookup(key string) (Record, bool, error) {
	path := s.Path(key)
	if s.faults != nil {
		if d := s.faults.IODelay(); d > 0 {
			time.Sleep(d)
		}
		if err := s.faults.ReadFault(key); err != nil {
			s.readErrors.Add(1)
			s.misses.Add(1)
			return Record{}, false, &OpError{Op: "get", Key: key, Err: err}
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Transient: the bytes were never seen, so this says nothing
			// about the record. Keep the file; the caller may retry.
			s.readErrors.Add(1)
			s.misses.Add(1)
			return Record{}, false, &OpError{Op: "get", Key: key, Err: err}
		}
		s.misses.Add(1)
		return Record{}, false, nil
	}
	if s.faults != nil {
		if m, ok := s.faults.MangleRead(raw); ok {
			raw = m
		}
	}
	gotKey, payload, err := DecodeFrame(raw, FormatVersion)
	if errors.Is(err, ErrVersionSkew) {
		s.versionSkips.Add(1)
		s.misses.Add(1)
		return Record{}, false, nil
	}
	var rec Record
	if err != nil || gotKey != key || json.Unmarshal(payload, &rec) != nil {
		s.corrupt(path)
		s.misses.Add(1)
		return Record{}, false, nil
	}
	s.hits.Add(1)
	return rec, true, nil
}

// Put persists rec under key atomically: the record is written to a temp
// file in the destination directory and renamed into place, so a
// concurrent reader sees the old record or the new one, never a torn
// write. Failures return a typed *OpError and are tallied in
// Counters().PutErrors so best-effort callers can drop the return value
// without losing observability. With resilience enabled transient errors
// are retried and an open breaker skips the write (ErrDegraded).
func (s *Store) Put(key string, rec Record) error {
	if s.res != nil {
		return s.res.put(key, rec)
	}
	return s.putCounted(key, rec)
}

// putCounted is the raw single-attempt persist plus counter accounting.
func (s *Store) putCounted(key string, rec Record) error {
	err := s.put(key, rec)
	if err != nil {
		s.putErrors.Add(1)
		return err
	}
	s.puts.Add(1)
	return nil
}

func (s *Store) put(key string, rec Record) error {
	if s.faults != nil {
		if d := s.faults.IODelay(); d > 0 {
			time.Sleep(d)
		}
		if err := s.faults.WriteFault(key); err != nil {
			return &OpError{Op: "put", Key: key, Err: err}
		}
	}
	if err := WriteFrame(s.Path(key), FormatVersion, key, rec); err != nil {
		return &OpError{Op: "put", Key: key, Err: err}
	}
	return nil
}

// Counters snapshots the activity counters. The snapshot is not atomic
// across fields, but each field is individually exact.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		PutErrors:    s.putErrors.Load(),
		ReadErrors:   s.readErrors.Load(),
		Corruptions:  s.corruptions.Load(),
		VersionSkips: s.versionSkips.Load(),
	}
}

// corrupt records a damaged file and removes it, so the key heals on the
// re-simulation's Put instead of re-parsing garbage forever.
func (s *Store) corrupt(path string) {
	s.corruptions.Add(1)
	os.Remove(path)
}

// payloadSum is the envelope checksum: hex SHA-256 of the payload bytes.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
