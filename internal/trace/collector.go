package trace

import "sync"

// Meta describes the simulated machine to the collector and exporters.
// internal/sim builds it from a Config (Config.TraceMeta) so the knowledge
// of slice scaling and clock geometry stays in one place.
type Meta struct {
	// SMs is the number of simulated SMs (shards are pre-allocated for
	// them; emits for higher ids grow the shard set on demand).
	SMs int
	// Schedulers per SM — the per-cycle issue-stall weight of a skipped
	// span (KindStallSpan apportioning).
	Schedulers int
	// Interval is the time-series bucket width in cycles (<= 0 selects
	// DefaultInterval).
	Interval int64
	// LineBytes sizes DRAM traffic in bytes for the exporters.
	LineBytes int
	// DRAMBytesPerCycle is the slice-scaled DRAM bandwidth, for the
	// bandwidth-utilization column (0 leaves utilization unreported).
	DRAMBytesPerCycle float64
	// RingCap bounds each SM's event ring buffer (<= 0 selects
	// DefaultRingCap). When a ring is full the oldest events are
	// overwritten; interval counters are exact regardless.
	RingCap int
}

// DefaultInterval is the metrics bucket width when Meta.Interval is unset.
const DefaultInterval = int64(10000)

// DefaultRingCap is the per-SM event capacity when Meta.RingCap is unset
// (~2.6 MB of events per SM).
const DefaultRingCap = 1 << 16

// Counters are the per-interval (and total) event-derived counts. Each
// field sums to the matching field of the run's final sim.Stats — the
// conservation contract the interval tests enforce: tracing is a
// decomposition of the aggregate statistics over time, never a second
// bookkeeping that can drift.
type Counters struct {
	Instructions    int64
	TensorLoads     int64 // row-vector loads issued (16 per wmma.load)
	LoadsEliminated int64 // rows removed by LHB renaming
	MMAs            int64
	Stores          int64

	IssueStallCycles int64 // scheduler-cycles with nothing issued
	LDSTStallCycles  int64 // of those, blocked on a full LDST queue

	// ServiceLines[level] counts line-equivalents supplied by each level
	// (the Fig. 11 mix, time-resolved).
	ServiceLines [NumLevels]int64
	MSHRMerges   int64
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.Instructions += o.Instructions
	c.TensorLoads += o.TensorLoads
	c.LoadsEliminated += o.LoadsEliminated
	c.MMAs += o.MMAs
	c.Stores += o.Stores
	c.IssueStallCycles += o.IssueStallCycles
	c.LDSTStallCycles += o.LDSTStallCycles
	for i := range c.ServiceLines {
		c.ServiceLines[i] += o.ServiceLines[i]
	}
	c.MSHRMerges += o.MSHRMerges
}

// DRAMLines is the number of lines transferred from DRAM.
func (c Counters) DRAMLines() int64 { return c.ServiceLines[LevelDRAM] }

// LHBRate is the fraction of issued row loads eliminated by renaming.
func (c Counters) LHBRate() float64 {
	if c.TensorLoads == 0 {
		return 0
	}
	return float64(c.LoadsEliminated) / float64(c.TensorLoads)
}

// Interval is one time-series sample: the counters accumulated over
// [Start, Start+Cycles).
type Interval struct {
	Index  int64
	Start  int64
	Cycles int64
	Counters
}

// IPC is instructions per cycle over the interval (whole simulated slice).
func (iv Interval) IPC() float64 {
	if iv.Cycles == 0 {
		return 0
	}
	return float64(iv.Instructions) / float64(iv.Cycles)
}

// shard is one SM's collection state: a ring buffer of events and the SM's
// interval accumulators. Each shard has its own lock, so concurrent
// emitters on different SMs never contend.
type shard struct {
	mu      sync.Mutex
	ring    []Event
	head    int // next overwrite position once the ring is full
	dropped int64
	iv      []Counters // indexed by interval number
}

// Collector implements Tracer: it captures events into per-SM ring buffers
// and folds counter-bearing kinds into per-interval accumulators. All
// methods are safe for concurrent use.
type Collector struct {
	meta Meta

	mu     sync.RWMutex // guards the shard slice (growth) and total
	shards []*shard
	total  int64 // set by Finish
}

// NewCollector builds a collector for the machine described by meta.
func NewCollector(meta Meta) *Collector {
	if meta.Interval <= 0 {
		meta.Interval = DefaultInterval
	}
	if meta.RingCap <= 0 {
		meta.RingCap = DefaultRingCap
	}
	if meta.SMs < 0 {
		meta.SMs = 0
	}
	c := &Collector{meta: meta}
	c.shards = make([]*shard, meta.SMs)
	for i := range c.shards {
		c.shards[i] = &shard{}
	}
	return c
}

// Meta returns the machine description the collector was built with.
func (c *Collector) Meta() Meta { return c.meta }

// shard returns SM sm's shard, growing the shard set if needed.
func (c *Collector) shard(sm int) *shard {
	if sm < 0 {
		sm = 0
	}
	c.mu.RLock()
	if sm < len(c.shards) {
		s := c.shards[sm]
		c.mu.RUnlock()
		return s
	}
	c.mu.RUnlock()
	c.mu.Lock()
	for sm >= len(c.shards) {
		c.shards = append(c.shards, &shard{})
	}
	s := c.shards[sm]
	c.mu.Unlock()
	return s
}

// Emit records one event (Tracer implementation).
func (c *Collector) Emit(sm int, e Event) {
	s := c.shard(sm)
	s.mu.Lock()
	defer s.mu.Unlock()

	// Ring capture.
	if len(s.ring) < c.meta.RingCap {
		s.ring = append(s.ring, e)
	} else {
		s.ring[s.head] = e
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.dropped++
	}

	// Interval accounting.
	switch e.Kind {
	case KindIssue:
		iv := s.at(e.Cycle / c.meta.Interval)
		iv.Instructions++
		iv.TensorLoads += e.A
		switch e.Op {
		case OpMMA:
			iv.MMAs++
		case OpStoreD:
			iv.Stores++
		}
	case KindStall:
		iv := s.at(e.Cycle / c.meta.Interval)
		iv.IssueStallCycles += e.A
		iv.LDSTStallCycles += e.B
	case KindStallSpan:
		// Apportion the dead span across the intervals it crosses: each
		// skipped cycle stalled all schedulers, B of them LDST-blocked —
		// exact arithmetic, same discipline as the simulator's Stats
		// accounting.
		start, span := e.Cycle, e.A
		for span > 0 {
			idx := start / c.meta.Interval
			take := (idx+1)*c.meta.Interval - start
			if take > span {
				take = span
			}
			iv := s.at(idx)
			iv.IssueStallCycles += take * int64(c.meta.Schedulers)
			iv.LDSTStallCycles += take * e.B
			start += take
			span -= take
		}
	case KindLHBHit:
		iv := s.at(e.Cycle / c.meta.Interval)
		iv.LoadsEliminated++
		iv.ServiceLines[LevelLHB]++
	case KindService:
		if e.Level >= 0 && e.Level < NumLevels {
			s.at(e.Cycle / c.meta.Interval).ServiceLines[e.Level]++
		}
	case KindMSHRMerge:
		s.at(e.Cycle/c.meta.Interval).MSHRMerges++
	}
}

// at returns the shard's counter bucket for interval idx, growing the
// slice as the simulation advances.
func (s *shard) at(idx int64) *Counters {
	if idx < 0 {
		idx = 0
	}
	for int64(len(s.iv)) <= idx {
		s.iv = append(s.iv, Counters{})
	}
	return &s.iv[idx]
}

// Finish records the run's total cycle count so the last (partial)
// interval reports its true width. Call it once, after sim.Run returns,
// before exporting.
func (c *Collector) Finish(totalCycles int64) {
	c.mu.Lock()
	c.total = totalCycles
	c.mu.Unlock()
}

// SMs returns the number of SM shards holding data.
func (c *Collector) SMs() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.shards)
}

// Dropped returns how many events were overwritten in full rings, summed
// over SMs. Interval counters are unaffected by drops.
func (c *Collector) Dropped() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.dropped
		s.mu.Unlock()
	}
	return n
}

// Events returns SM sm's captured events in chronological capture order
// (oldest retained first). The slice is a copy.
func (c *Collector) Events(sm int) []Event {
	c.mu.RLock()
	if sm < 0 || sm >= len(c.shards) {
		c.mu.RUnlock()
		return nil
	}
	s := c.shards[sm]
	c.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.ring))
	out = append(out, s.ring[s.head:]...)
	out = append(out, s.ring[:s.head]...)
	return out
}

// TailEvents returns the last n captured events of SM sm (chronological,
// oldest of the tail first) — what a crash dump wants: the ring's most
// recent activity without copying the whole buffer. The slice is a copy.
func (c *Collector) TailEvents(sm, n int) []Event {
	c.mu.RLock()
	if sm < 0 || sm >= len(c.shards) || n <= 0 {
		c.mu.RUnlock()
		return nil
	}
	s := c.shards[sm]
	c.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	total := len(s.ring)
	if n > total {
		n = total
	}
	// Chronological order is ring[head:] then ring[:head] (head is both
	// the oldest retained event and the next overwrite position once the
	// ring is full; 0 while it is still filling). The tail is the last n
	// of that sequence.
	out := make([]Event, 0, n)
	if n <= s.head {
		return append(out, s.ring[s.head-n:s.head]...)
	}
	out = append(out, s.ring[total-(n-s.head):]...)
	return append(out, s.ring[:s.head]...)
}

// Intervals returns the merged (all-SM) time series as contiguous
// intervals from cycle 0 through the end of the run. Empty intervals are
// materialized with zero counters so consumers see a gap-free series.
func (c *Collector) Intervals() []Interval {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := int64(0)
	for _, s := range c.shards {
		s.mu.Lock()
		if int64(len(s.iv)) > n {
			n = int64(len(s.iv))
		}
		s.mu.Unlock()
	}
	if c.total > 0 {
		if covers := (c.total + c.meta.Interval - 1) / c.meta.Interval; covers > n {
			n = covers
		}
	}
	out := make([]Interval, n)
	for i := range out {
		out[i].Index = int64(i)
		out[i].Start = int64(i) * c.meta.Interval
		out[i].Cycles = c.meta.Interval
		if c.total > 0 && out[i].Start+out[i].Cycles > c.total {
			out[i].Cycles = c.total - out[i].Start
			if out[i].Cycles < 0 {
				out[i].Cycles = 0
			}
		}
	}
	for _, s := range c.shards {
		s.mu.Lock()
		for i, iv := range s.iv {
			out[i].Counters.add(iv)
		}
		s.mu.Unlock()
	}
	return out
}

// Totals sums every interval — the whole-run counters.
func (c *Collector) Totals() Counters {
	var t Counters
	for _, iv := range c.Intervals() {
		t.add(iv.Counters)
	}
	return t
}
