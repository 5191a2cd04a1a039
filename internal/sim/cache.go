package sim

import (
	"math/bits"
)

// cacheArray is a functional set-associative tag array with LRU
// replacement. Timing is handled by the callers (latency constants and port
// serialization); the array answers only hit/miss and tracks residency.
type cacheArray struct {
	sets      int
	ways      int
	lineShift uint
	// lines holds sets*ways ways, set-major. Each set keeps its valid ways
	// in a prefix of valid[set] ways, most recently used first: no line is
	// ever invalidated on its own, so the prefix only grows, and the least
	// recently used line is always the set's last.
	lines []cacheWay
	valid []int
}

// cacheWay is one way of a set: the line address it holds and, in the L1,
// the cycle its pending fill lands (the L2 leaves it 0).
type cacheWay struct {
	tag  uint64
	fill int64
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
		valid:     make([]int, sets),
	}
}

func (c *cacheArray) set(lineAddr uint64) int {
	return int((lineAddr >> c.lineShift) & uint64(c.sets-1))
}

// find walks lineAddr's set once. It returns the set and the index in
// lines of the line's way, or -1 when the line is not resident.
func (c *cacheArray) find(lineAddr uint64) (set, i int) {
	set = c.set(lineAddr)
	base := set * c.ways
	for j, w := range c.lines[base : base+c.valid[set]] {
		if w.tag == lineAddr {
			return set, base + j
		}
	}
	return set, -1
}

// touch makes lines[i], a way of set, the set's most recently used line.
func (c *cacheArray) touch(set, i int) {
	base := set * c.ways
	if i == base {
		return
	}
	w := c.lines[i]
	copy(c.lines[base+1:i+1], c.lines[base:i])
	c.lines[base] = w
}

// insert fills w into set as its most recently used line. A full set drops
// its least recently used line, which insert returns with evicted set.
func (c *cacheArray) insert(set int, w cacheWay) (victim cacheWay, evicted bool) {
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	n := c.valid[set]
	if n == c.ways {
		n--
		victim, evicted = ways[n], true
	} else {
		c.valid[set]++
	}
	copy(ways[1:n+1], ways[:n])
	ways[0] = w
	return victim, evicted
}

// pending counts the resident lines whose fill lands after cycle now.
func (c *cacheArray) pending(now int64) int {
	n := 0
	for set, valid := range c.valid {
		for _, w := range c.lines[set*c.ways : set*c.ways+valid] {
			if w.fill > now {
				n++
			}
		}
	}
	return n
}

// Access looks lineAddr up in one walk of its set: a hit makes the line the
// most recently used, and a miss fills it, evicting the least recently
// used line of a full set. It reports the hit.
func (c *cacheArray) Access(lineAddr uint64) bool {
	set, i := c.find(lineAddr)
	if i >= 0 {
		c.touch(set, i)
		return true
	}
	c.insert(set, cacheWay{tag: lineAddr})
	return false
}

// memSystem is the shared part of the hierarchy: the L2 slice and the
// DRAM bandwidth model behind it. Per-SM L1s live in smState.
//
// Ordering contract: every access mutates shared state (L2 recency order,
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
