package sim

import (
	"testing"
	"time"
)

// FuzzConfigValidate pins the Validate contract: any Config that passes
// must be safe for every derived accessor the simulator consults before
// the cycle loop, and for building its memory system (the L2 and an L1) —
// no panics, no zero divisors, no negative resolved bounds. The seeds are
// the shipped configuration plus degenerate and boundary shapes.
func FuzzConfigValidate(f *testing.F) {
	c := TitanVConfig()
	f.Add(c.L1KB, c.L2KB, c.SimSMs, int64(0), int64(0), int64(0))
	f.Add(16, 64, 1, int64(-1), int64(1), int64(5))
	f.Add(0, 0, 0, int64(-7), int64(-9), int64(-1))
	f.Add(128, 4608, 81, int64(1), int64(-1), int64(0))
	f.Add(1<<10, 1<<10, 80, int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, l1, l2, simSMs int, maxCycles, window, wallMS int64) {
		c := TitanVConfig()
		c.L1KB, c.L2KB, c.SimSMs = l1, l2, simSMs
		c.MaxCycles, c.watchdogWindow = maxCycles, window
		c.WallTimeout = time.Duration(wallMS) * time.Millisecond
		if err := c.Validate(); err != nil {
			return // rejected configurations are outside the contract
		}
		_ = c.DRAMBytesPerCycle()
		_ = c.SliceScale()
		_ = c.TraceMeta(0)
		if c.watchdogCycles() < 0 {
			t.Fatalf("validated config resolved a negative watchdog window")
		}
		if c.maxCycles() <= 0 {
			t.Fatalf("validated config resolved a non-positive cycle bound")
		}
		var stats Stats
		newMemSystem(c, &stats)
		newCacheArray(c.L1KB<<10, lineBytes, l1Ways)
	})
}
