package sim

import (
	"testing"
	"time"
)

// FuzzConfigValidate pins the Validate contract: any Config that passes
// must be safe for every derived accessor the simulator consults before
// the cycle loop — no panics, no zero divisors, no negative resolved
// bounds. The seeds are the shipped configuration plus degenerate and
// boundary shapes.
func FuzzConfigValidate(f *testing.F) {
	c := TitanVConfig()
	f.Add(c.NumSMs, c.MaxWarpsPerSM, c.Schedulers, c.LineBytes, c.SectorBytes,
		c.L1KB, c.L2KB, c.LDSTQueueDepth, c.SimSMs, c.RetireDelay,
		int64(0), int64(0), int64(0), c.DRAMBandwidth)
	f.Add(2, 8, 4, 128, 32, 16, 64, 4, 1, 0, int64(-1), int64(1), int64(5), 1.0)
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, int64(-7), int64(-9), int64(-1), 0.0)
	f.Add(80, 64, 3, 96, 32, 128, 4608, 24, 4, 8000, int64(1), int64(-1), int64(0), 652.8)
	f.Fuzz(func(t *testing.T, numSMs, warps, scheds, line, sector, l1, l2, ldst, simSMs, retire int,
		maxCycles, window, wallMS int64, bw float64) {
		c := TitanVConfig()
		c.NumSMs, c.MaxWarpsPerSM, c.Schedulers = numSMs, warps, scheds
		c.LineBytes, c.SectorBytes = line, sector
		c.L1KB, c.L2KB, c.LDSTQueueDepth = l1, l2, ldst
		c.SimSMs, c.RetireDelay = simSMs, retire
		c.MaxCycles, c.WatchdogWindow = maxCycles, window
		c.WallTimeout = time.Duration(wallMS) * time.Millisecond
		c.DRAMBandwidth = bw
		if err := c.Validate(); err != nil {
			return // rejected configurations are outside the contract
		}
		_ = c.WarpsPerScheduler()
		_ = c.DRAMBytesPerCycle()
		_ = c.SliceScale()
		_ = c.TraceMeta(0)
		if c.watchdogWindow() < 0 {
			t.Fatalf("validated config resolved a negative watchdog window")
		}
		if c.maxCycles() <= 0 {
			t.Fatalf("validated config resolved a non-positive cycle bound")
		}
	})
}
