package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"duplo/internal/store"
)

// goldenVersions pins each store.FormatVersion to the SHA-256 of the
// all-ctas8-sms2 golden recorded under it. It is append-only: a change
// that moves simulated results re-records the golden, bumps
// store.FormatVersion (so records and calibrations of the old model stop
// loading) and appends one row here.
var goldenVersions = []struct {
	version int
	sha256  string
}{
	{1, "73c62f88d64e2a21c37a546410280505195dfef76f92033747c2bfd70e191c5c"},
}

// TestGoldenPinsStoreVersion fails when the golden's bytes change without
// a store.FormatVersion bump: results stored under the old model would
// otherwise be served under unchanged keys.
func TestGoldenPinsStoreVersion(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "all-ctas8-sms2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	for i := 1; i < len(goldenVersions); i++ {
		if goldenVersions[i].version <= goldenVersions[i-1].version {
			t.Fatalf("goldenVersions row %d: version %d does not follow %d", i, goldenVersions[i].version, goldenVersions[i-1].version)
		}
	}
	last := goldenVersions[len(goldenVersions)-1]
	if last.version != store.FormatVersion {
		t.Fatalf("store.FormatVersion is %d but the newest golden pin is for version %d: append {%d, %q}",
			store.FormatVersion, last.version, store.FormatVersion, got)
	}
	if got != last.sha256 {
		t.Fatalf("the golden changed (sha256 %s, pinned %s at store version %d): bump store.FormatVersion and append {%d, %q}",
			got, last.sha256, last.version, last.version+1, got)
	}
}
