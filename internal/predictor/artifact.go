package predictor

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"duplo/internal/store"
)

// Calibration artifacts persist in internal/store's on-disk frame
// (store.WriteFrame): {version, key, sum, payload} with the payload's own
// SHA-256, written via temp file + atomic rename, under predictor's own
// FormatVersion. A warm daemon (or a second duploexp invocation pointed
// at the same artifact) therefore never refits — and a truncated,
// bit-flipped, version-skewed or wrong-key artifact is a clean refit,
// never a reinterpretation.

// ErrMismatch reports a structurally valid artifact fitted for a
// different calibration key (different sim config, workload set, or
// predictor format): the caller must refit, but the file is not damaged.
var ErrMismatch = errors.New("predictor: calibration key mismatch")

// Save writes the calibration artifact atomically. The parent directory
// is created if needed.
func Save(path string, c *Calibration) error {
	if err := store.WriteFrame(path, FormatVersion, c.Key, c); err != nil {
		return fmt.Errorf("predictor: %w", err)
	}
	return nil
}

// Load reads and fully verifies a calibration artifact. It returns
// fs.ErrNotExist (wrapped) when the file is absent, ErrMismatch (wrapped,
// with both keys) when the artifact was fitted for a different key, and a
// descriptive error for damage or version skew. Callers treat every
// non-nil error the same way — refit — but the distinction keeps logs
// honest.
func Load(path, wantKey string) (*Calibration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("predictor: %w", err)
	}
	key, payload, err := store.DecodeFrame(raw, FormatVersion)
	if err != nil {
		return nil, fmt.Errorf("predictor: %s: %w", path, err)
	}
	if key != wantKey {
		return nil, fmt.Errorf("%w: artifact %q, want %q", ErrMismatch, key, wantKey)
	}
	var c Calibration
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("predictor: %s: corrupt payload: %w", path, err)
	}
	if c.Key != wantKey {
		return nil, fmt.Errorf("%w: payload %q, want %q", ErrMismatch, c.Key, wantKey)
	}
	return &c, nil
}

// DefaultPath places the artifact inside a store directory, keyed by the
// calibration key's hash, so differently-scaled daemons sharing one cache
// directory keep separate calibrations.
func DefaultPath(storeDir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(storeDir, "calibration", hex.EncodeToString(sum[:])[:16]+".json")
}
