package sim

import (
	"math"
	"math/bits"
)

// cacheArray is a functional set-associative tag array with LRU
// replacement. Timing is handled by the callers (latency constants and port
// serialization); the array answers only hit/miss and tracks residency.
type cacheArray struct {
	sets      int
	ways      int
	lineShift uint
	lines     []cacheWay // sets*ways, set-major
	clock     int64
}

// cacheWay is one way of a set: the line address it holds and the clock of
// its last access, 0 when the way is invalid. No line is ever invalidated
// on its own, so the valid ways of a set are a prefix of it.
type cacheWay struct {
	tag uint64
	lru int64
}

// newCacheArray builds an array for capacityBytes with the given geometry.
// The set count is forced to a power of two (rounding down) so indexing is
// a mask, as in the hardware.
func newCacheArray(capacityBytes, lineBytes, ways int) *cacheArray {
	lines := capacityBytes / lineBytes
	if lines < ways {
		ways = lines
		if ways == 0 {
			ways = 1
		}
	}
	sets := lines / ways
	if sets == 0 {
		sets = 1
	}
	sets = 1 << (bits.Len(uint(sets)) - 1)
	return &cacheArray{
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		lines:     make([]cacheWay, sets*ways),
	}
}

func (c *cacheArray) set(lineAddr uint64) int {
	return int((lineAddr >> c.lineShift) & uint64(c.sets-1))
}

// Access looks lineAddr up in one walk of its set: a hit refreshes the
// way's LRU stamp, and a miss fills the line into the set's first invalid
// way or else evicts the least recently used one. It reports the hit.
func (c *cacheArray) Access(lineAddr uint64) bool {
	c.clock++
	s := c.set(lineAddr) * c.ways
	set := c.lines[s : s+c.ways]
	victim, oldest := 0, int64(math.MaxInt64)
	for i := range set {
		w := &set[i]
		if w.lru == 0 {
			victim = i // the valid prefix ends here: a miss
			break
		}
		if w.tag == lineAddr {
			w.lru = c.clock
			return true
		}
		if w.lru < oldest {
			victim, oldest = i, w.lru
		}
	}
	set[victim] = cacheWay{tag: lineAddr, lru: c.clock}
	return false
}

// memSystem is the shared part of the hierarchy: the L2 slice and the
// DRAM bandwidth model behind it. Per-SM L1s live in smState.
//
// Ordering contract: every access mutates shared state (L2 LRU recency,
// dramFree, and the dramFrac fractional accumulator — floating-point, so not
// even reorderable), which makes results depend on the exact arrival order
// of requests. The cycle loop calls in ascending (cycle, smID, issue index)
// order; that order is part of the result.
type memSystem struct {
	cfg Config
	l2  *cacheArray
	// dramFree is the cycle the DRAM channel next accepts a transfer
	// (bandwidth serialization over the simulated slice).
	dramFree          int64
	dramCyclesPerLine float64
	dramFrac          float64 // fractional accumulation of transfer cycles
	stats             *Stats
}

func newMemSystem(cfg Config, stats *Stats) *memSystem {
	// Slice-scaled L2 capacity and DRAM bandwidth (Config.SimSMs doc).
	l2Bytes := int(float64(cfg.L2KB<<10) * cfg.SliceScale())
	bpc := cfg.DRAMBytesPerCycle() * cfg.SliceScale()
	return &memSystem{
		cfg:               cfg,
		l2:                newCacheArray(l2Bytes, cfg.LineBytes, cfg.L2Ways),
		dramCyclesPerLine: float64(cfg.LineBytes) / bpc,
		stats:             stats,
	}
}

// readLine handles an L1 miss arriving at the L2 at cycle t. It returns the
// fill cycle and the level that supplied the data.
func (m *memSystem) readLine(lineAddr uint64, t int64) (int64, ServiceLevel) {
	m.stats.L2Accesses++
	if m.l2.Access(lineAddr) {
		m.stats.L2Hits++
		return t + int64(m.cfg.L2LatencyCycles), ServiceL2
	}
	// DRAM: bandwidth-serialized transfer after the access latency.
	start := t + int64(m.cfg.L2LatencyCycles)
	if m.dramFree > start {
		start = m.dramFree
	}
	m.dramFrac += m.dramCyclesPerLine
	whole := int64(m.dramFrac)
	m.dramFrac -= float64(whole)
	m.dramFree = start + whole
	fill := start + int64(m.cfg.DRAMLatencyCycles) + whole
	m.stats.DRAMLines++
	return fill, ServiceDRAM
}

// writeLine handles a write-through store line at cycle t: it consumes DRAM
// bandwidth but completes immediately from the SM's perspective.
func (m *memSystem) writeLine(t int64) {
	start := t
	if m.dramFree > start {
		start = m.dramFree
	}
	m.dramFrac += m.dramCyclesPerLine
	whole := int64(m.dramFrac)
	m.dramFrac -= float64(whole)
	m.dramFree = start + whole
	m.stats.StoreLines++
}
