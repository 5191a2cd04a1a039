package sim

import "math/bits"

// cacheArray is a functional set-associative tag array with LRU
// replacement. Timing is handled by the callers (latency constants and port
// serialization); the array answers only hit/miss and tracks residency.
type cacheArray struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64 // sets*ways, set-major; tag = line address
	valid     []bool
	lru       []int64
	clock     int64
}

// cacheGeometry is the derived shape of a cacheArray — split out so the
// arena's fits() check can recompute it without allocating an array.
type cacheGeometry struct {
	sets      int
	ways      int
	lineShift uint
}

// newGeometry derives the array shape for capacityBytes. The set count is
// forced to a power of two (rounding down) so indexing is a mask, as in
// the hardware.
func newGeometry(capacityBytes, lineBytes, ways int) cacheGeometry {
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
	return cacheGeometry{
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
	}
}

// newCacheArray builds an array for capacityBytes with the given geometry.
func newCacheArray(capacityBytes, lineBytes, ways int) *cacheArray {
	g := newGeometry(capacityBytes, lineBytes, ways)
	return &cacheArray{
		sets:      g.sets,
		ways:      g.ways,
		lineShift: g.lineShift,
		tags:      make([]uint64, g.sets*g.ways),
		valid:     make([]bool, g.sets*g.ways),
		lru:       make([]int64, g.sets*g.ways),
	}
}

func (c *cacheArray) set(lineAddr uint64) int {
	return int((lineAddr >> c.lineShift) & uint64(c.sets-1))
}

// Lookup probes for lineAddr, updating LRU on hit.
func (c *cacheArray) Lookup(lineAddr uint64) bool {
	c.clock++
	s := c.set(lineAddr) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[s+w] && c.tags[s+w] == lineAddr {
			c.lru[s+w] = c.clock
			return true
		}
	}
	return false
}

// Insert fills lineAddr, evicting the LRU way if needed.
func (c *cacheArray) Insert(lineAddr uint64) {
	c.clock++
	s := c.set(lineAddr) * c.ways
	victim := s
	oldest := int64(1) << 62
	for w := 0; w < c.ways; w++ {
		i := s + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victim = i
		}
	}
	c.tags[victim] = lineAddr
	c.valid[victim] = true
	c.lru[victim] = c.clock
}

// Capacity returns sets*ways lines.
func (c *cacheArray) Capacity() int { return c.sets * c.ways }

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
	if m.l2.Lookup(lineAddr) {
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
	m.l2.Insert(lineAddr)
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
