package serving

import (
	"fmt"
	"math"
)

// Policy selects how arriving requests are routed to chips.
type Policy int

const (
	// RoundRobin cycles through the chips in index order.
	RoundRobin Policy = iota
	// JoinShortestQueue routes to the chip with the fewest requests
	// queued or in service (ties break to the lowest index).
	JoinShortestQueue
	// LeastLoaded routes to the chip with the least estimated outstanding
	// work in nanoseconds — remaining service of the in-flight batch plus
	// a batch-of-one estimate per queued request (ties break low).
	LeastLoaded
)

// String returns the policy's CLI/table name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case JoinShortestQueue:
		return "jsq"
	case LeastLoaded:
		return "least"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Policies lists every routing policy in presentation order.
func Policies() []Policy { return []Policy{RoundRobin, JoinShortestQueue, LeastLoaded} }

// Class is one request class: a named workload (a LatencyTable class, so
// typically a network like "ResNet") with its own arrival process and SLO.
type Class struct {
	// Name keys the LatencyTable.
	Name string
	// Arrival is the inter-arrival distribution of this class's stream.
	Arrival Dist
	// SLONanos is the per-request latency objective: a completion within
	// it counts toward goodput. 0 means every completion is good.
	SLONanos int64
}

// Config assembles one cluster simulation.
type Config struct {
	// Chips is the number of serving instances.
	Chips int
	// Policy routes arrivals to chips.
	Policy Policy
	// MaxBatch caps batch formation (0 = 1: no batching). Formed batches
	// look their service time up in Table, rounding up to the nearest
	// measured batch point.
	MaxBatch int
	// QueueCap bounds each chip's queue; an arrival routed to a full chip
	// is rejected (admission control). 0 = unbounded.
	QueueCap int
	// RetryAfterNanos, when positive, models shed clients that honor a
	// Retry-After hint instead of vanishing: a queue-full offer backs off
	// this long and re-offers itself, up to MaxRetries times, before it
	// finally counts as Rejected. 0 (the default) keeps the original
	// immediate-rejection semantics and byte-identical metrics. Latency
	// for an eventually-admitted retry is measured from its first offer,
	// so retry queueing shows up in the percentiles like any other wait.
	RetryAfterNanos int64
	// MaxRetries bounds re-offers per shed request (meaningful only with
	// RetryAfterNanos > 0). The invariant Offered == Admitted + Rejected
	// holds at any setting: retries are re-offers of the same request,
	// counted separately in Retried.
	MaxRetries int
	// HorizonNanos is how long arrivals are generated. The loop then
	// drains: every admitted request completes and is measured.
	HorizonNanos int64
	// Seed fixes every random stream. Same seed ⇒ byte-identical metrics.
	Seed int64
	// Classes are the request classes (at least one).
	Classes []Class
	// Table provides service times (required).
	Table *LatencyTable
	// SampleEveryNanos enables the queue-depth time series at this period
	// (0 = off).
	SampleEveryNanos int64
	// RecordSpans keeps one BatchSpan per formed batch for the Perfetto
	// timeline export (off by default: a long run forms many batches).
	RecordSpans bool
}

// Validate rejects a config the event loop cannot run deterministically
// to completion.
func (c Config) Validate() error {
	if c.Chips <= 0 {
		return fmt.Errorf("serving: Chips must be positive, got %d", c.Chips)
	}
	if c.HorizonNanos <= 0 {
		return fmt.Errorf("serving: HorizonNanos must be positive, got %d", c.HorizonNanos)
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("serving: MaxBatch must be non-negative, got %d", c.MaxBatch)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("serving: QueueCap must be non-negative, got %d", c.QueueCap)
	}
	if c.RetryAfterNanos < 0 {
		return fmt.Errorf("serving: RetryAfterNanos must be non-negative, got %d", c.RetryAfterNanos)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("serving: MaxRetries must be non-negative, got %d", c.MaxRetries)
	}
	if c.Table == nil {
		return fmt.Errorf("serving: Config.Table is required")
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("serving: at least one request class is required")
	}
	for i, cl := range c.Classes {
		if cl.Name == "" {
			return fmt.Errorf("serving: class %d has no name", i)
		}
		if cl.Arrival == nil {
			return fmt.Errorf("serving: class %q has no arrival distribution", cl.Name)
		}
		if err := cl.Arrival.Validate(); err != nil {
			return fmt.Errorf("serving: class %q: %w", cl.Name, err)
		}
		if cl.SLONanos < 0 {
			return fmt.Errorf("serving: class %q SLO must be non-negative, got %d", cl.Name, cl.SLONanos)
		}
		// Probe the table now so a missing class fails at configuration
		// time, not mid-simulation.
		if _, err := c.Table.ServiceNanos(cl.Name, 1); err != nil {
			return err
		}
	}
	return nil
}

// request is one admitted request in flight through the cluster.
type request struct {
	class   int // index into Config.Classes
	arrival int64
}

// chip is one serving instance's state.
type chip struct {
	queue []request
	// queuedEstNanos is the batch-of-one service estimate summed over the
	// queue (LeastLoaded's bookkeeping; maintained incrementally).
	queuedEstNanos int64
	busy           bool
	busyUntil      int64
	batch          []request
	busyNanos      int64 // total time spent serving (utilization)
	batches        int64
	maxDepth       int
}

// event kinds, in tie-break order: at equal timestamps, completions
// precede arrivals precede retried offers precede samples (a freed chip
// sees the queue state before a simultaneous arrival routes, fresh
// traffic beats backed-off traffic to a contested slot, and samples
// observe the settled state). Remaining ties break on sequence number —
// insertion order — so the schedule is a pure function of the config.
const (
	evComplete = iota
	evArrival
	evRetry
	evSample
)

type event struct {
	at   int64
	seq  int64
	arr  int64 // evRetry: the retried request's original offer time
	who  int32 // chip (evComplete) or class (evArrival/evRetry)
	aux  int32 // evRetry: re-offers taken so far
	kind uint8
}

// eventHeap is a hand-rolled binary min-heap of events. container/heap
// would box every event into an interface{} on each Push and Pop — two heap
// allocations per DES event, the dominant cost of the loop. The value-typed
// version allocates only on backing-array growth; capacity is retained
// across pushes and pops, so a settled loop runs allocation-free. The pop
// sequence is identical to the container/heap version: the comparator
// (at, kind, seq) is a strict total order (seq is unique), and any binary
// heap pops a strictly ordered set in exactly sorted order.
type eventHeap []event

func lessEv(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// push sifts up with a hole: parents slide down into the vacancy and the
// new event is written exactly once.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessEv(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// replaceTop overwrites the minimum with ev and sifts it down through a
// hole — a pop and a push in one sift.
func (h eventHeap) replaceTop(ev event) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && lessEv(h[r], h[c]) {
			c = r
		}
		if !lessEv(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// pop removes the minimum, sifting the displaced last element down from
// the root.
func (h *eventHeap) pop() {
	n := len(*h) - 1
	last := (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		h.replaceTop(last)
	}
}

// sim is the running event loop's state.
type sim struct {
	cfg    Config
	chips  []chip
	events eventHeap
	seq    int64
	rngs   []*RNG // one substream per class
	unit   []int64
	// svc[class][n-1] caches Table.ServiceNanos(class, n) for n=1..MaxBatch,
	// hoisting the per-batch string-keyed map lookup and batch-point search
	// out of the event loop.
	svc    [][]int64
	rrNext int
	now    int64
	m      *Metrics

	// Time-weighted queue-depth accounting: inSystem counts admitted but
	// not yet completed requests; the integral accumulates depth*dt.
	inSystem      int
	depthIntegral float64

	// topDone is set while a handler runs on the event at the heap's top,
	// until its first push takes that spent slot (see Run).
	topDone bool
}

// Run executes the cluster simulation to completion — arrivals generated
// until the horizon, then drained — and returns the finished metrics.
// The loop is single-threaded and integer-clocked: a fixed seed yields
// byte-identical metrics at any GOMAXPROCS.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 1
	}
	s := &sim{
		cfg:   cfg,
		chips: make([]chip, cfg.Chips),
		rngs:  make([]*RNG, len(cfg.Classes)),
		unit:  make([]int64, len(cfg.Classes)),
		m:     newMetrics(cfg),
	}
	s.svc = make([][]int64, len(cfg.Classes))
	for i, cl := range cfg.Classes {
		s.rngs[i] = DeriveRNG(cfg.Seed, fmt.Sprintf("class/%d/%s", i, cl.Name))
		// Validate probed batch 1, so these lookups cannot fail.
		s.unit[i], _ = cfg.Table.ServiceNanos(cl.Name, 1)
		s.svc[i] = make([]int64, cfg.MaxBatch)
		for n := 1; n <= cfg.MaxBatch; n++ {
			s.svc[i][n-1], _ = cfg.Table.ServiceNanos(cl.Name, n)
		}
		s.scheduleArrival(i, 0)
	}
	if cfg.SampleEveryNanos > 0 {
		s.push(event{at: cfg.SampleEveryNanos, kind: evSample})
	}
	// Each event is handled in place on the heap's top, not popped first:
	// the handler's first push replaces it in one sift, and the loop pops
	// it only if the handler pushed nothing. That leaves the same pending
	// set as pop-then-push, and (at, kind, seq) is a strict total order,
	// so the pop sequence depends only on that set. This holds as long as
	// no handler reads s.events.
	for len(s.events) > 0 {
		ev := s.events[0]
		s.topDone = true
		s.depthIntegral += float64(s.inSystem) * float64(ev.at-s.now)
		s.now = ev.at
		s.m.Events++
		switch ev.kind {
		case evArrival:
			s.arrive(int(ev.who))
		case evRetry:
			s.offer(int(ev.who), ev.arr, ev.aux)
		case evComplete:
			s.complete(int(ev.who))
		case evSample:
			s.sample()
		}
		if s.topDone {
			s.topDone = false
			s.events.pop()
		}
	}
	for i := range s.chips {
		s.m.chipBusyNanos = append(s.m.chipBusyNanos, s.chips[i].busyNanos)
		s.m.Batches += s.chips[i].batches
		if s.chips[i].maxDepth > s.m.MaxQueueDepth {
			s.m.MaxQueueDepth = s.chips[i].maxDepth
		}
	}
	s.m.finish(s.now)
	// No request is in the system after the last event, so the integral
	// over the makespan is the integral up to s.now.
	if s.m.MakespanNanos > 0 {
		s.m.MeanQueueDepth = s.depthIntegral / float64(s.m.MakespanNanos)
	}
	return s.m, nil
}

func (s *sim) push(ev event) {
	ev.seq = s.seq
	s.seq++
	if s.topDone {
		s.topDone = false
		s.events.replaceTop(ev)
		return
	}
	s.events.push(ev)
}

// scheduleArrival draws the class's next inter-arrival from `from` and
// enqueues it unless it lands past the horizon (the stream then ends).
// A gap of 2^63 ns or more lies past any int64 horizon and would wrap in
// the conversion, so it ends the stream before converting; the rest are
// compared with the horizon that remains, as from+gap could wrap too.
func (s *sim) scheduleArrival(class int, from int64) {
	gap := s.cfg.Classes[class].Arrival.Sample(s.rngs[class])
	if !(gap*1e9 < 1<<63) {
		return
	}
	n := nanosOf(gap)
	if n > s.cfg.HorizonNanos-from {
		return
	}
	s.push(event{at: from + n, kind: evArrival, who: int32(class)})
}

// nanosOf converts a sampled inter-arrival in seconds to the integer
// clock, clamping to at least one nanosecond so streams always advance.
// seconds*1e9 must be below 2^63.
func nanosOf(seconds float64) int64 {
	n := int64(math.Round(seconds * 1e9))
	if n < 1 {
		n = 1
	}
	return n
}

// arrive counts one fresh arrival, keeps the class's stream going, and
// offers the request to the cluster.
func (s *sim) arrive(class int) {
	s.scheduleArrival(class, s.now)
	s.m.Classes[class].Offered++
	s.offer(class, s.now, 0)
}

// offer routes one offered request — fresh or backing off after a shed —
// and applies admission control. arrival is the request's first offer
// time (its latency clock); retries is how many re-offers it has taken.
func (s *sim) offer(class int, arrival int64, retries int32) {
	cm := &s.m.Classes[class]
	ci := s.route()
	c := &s.chips[ci]
	if s.cfg.QueueCap > 0 && len(c.queue) >= s.cfg.QueueCap {
		if s.cfg.RetryAfterNanos > 0 && int(retries) < s.cfg.MaxRetries {
			cm.Retried++
			s.push(event{at: s.now + s.cfg.RetryAfterNanos, arr: arrival, kind: evRetry, who: int32(class), aux: retries + 1})
			return
		}
		cm.Rejected++
		return
	}
	cm.Admitted++
	s.inSystem++
	c.queue = append(c.queue, request{class: class, arrival: arrival})
	c.queuedEstNanos += s.unit[class]
	if d := len(c.queue); d > c.maxDepth {
		c.maxDepth = d
	}
	if !c.busy {
		s.startBatch(ci)
	}
}

// route picks the destination chip under the configured policy.
func (s *sim) route() int {
	switch s.cfg.Policy {
	case JoinShortestQueue:
		best, bestDepth := 0, -1
		for i := range s.chips {
			d := len(s.chips[i].queue) + len(s.chips[i].batch)
			if bestDepth < 0 || d < bestDepth {
				best, bestDepth = i, d
			}
		}
		return best
	case LeastLoaded:
		best := 0
		var bestLoad int64 = -1
		for i := range s.chips {
			load := s.chips[i].queuedEstNanos
			if s.chips[i].busy {
				load += s.chips[i].busyUntil - s.now
			}
			if bestLoad < 0 || load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	default: // RoundRobin
		i := s.rrNext % len(s.chips)
		s.rrNext++
		return i
	}
}

// startBatch forms a batch and begins serving it: the head request picks
// the class, then the whole queue is scanned for that class's requests
// (in FIFO order) up to MaxBatch — classes never mix in a batch, but a
// same-class request behind a different-class head still rides along, so
// interleaved streams don't fragment batching. Service time is the
// latency table's entry for the formed size (rounded up to the nearest
// measured batch point).
func (s *sim) startBatch(ci int) {
	c := &s.chips[ci]
	if len(c.queue) == 0 {
		return
	}
	class := c.queue[0].class
	c.batch = c.batch[:0]
	kept := c.queue[:0]
	for _, rq := range c.queue {
		if rq.class == class && len(c.batch) < s.cfg.MaxBatch {
			c.batch = append(c.batch, rq)
		} else {
			kept = append(kept, rq)
		}
	}
	c.queue = kept
	n := len(c.batch)
	c.queuedEstNanos -= int64(n) * s.unit[class]
	svc := s.svc[class][n-1]
	c.busy = true
	c.busyUntil = s.now + svc
	c.busyNanos += svc
	c.batches++
	s.m.BatchedRequests += int64(n)
	if s.cfg.RecordSpans {
		s.m.BatchSpans = append(s.m.BatchSpans, BatchSpan{
			Chip: ci, Class: s.cfg.Classes[class].Name, Size: n,
			StartNanos: s.now, DurNanos: svc,
		})
	}
	s.push(event{at: c.busyUntil, kind: evComplete, who: int32(ci)})
}

// complete retires the chip's in-flight batch, crediting each request's
// sojourn to its class, then starts the next batch if one is waiting.
func (s *sim) complete(ci int) {
	c := &s.chips[ci]
	for _, rq := range c.batch {
		cm := &s.m.Classes[rq.class]
		cm.Completed++
		lat := s.now - rq.arrival
		cm.latencies = append(cm.latencies, lat)
		slo := s.cfg.Classes[rq.class].SLONanos
		if slo == 0 || lat <= slo {
			cm.Good++
		}
	}
	s.inSystem -= len(c.batch)
	c.batch = c.batch[:0]
	c.busy = false
	s.startBatch(ci)
}

// sample records one queue-depth observation and schedules the next while
// inside the horizon.
func (s *sim) sample() {
	depths := make([]int, len(s.chips))
	total := 0
	for i := range s.chips {
		depths[i] = len(s.chips[i].queue) + len(s.chips[i].batch)
		total += depths[i]
	}
	s.m.QueueSamples = append(s.m.QueueSamples, QueueSample{AtNanos: s.now, Depths: depths, Total: total})
	if next := s.now + s.cfg.SampleEveryNanos; next <= s.cfg.HorizonNanos {
		s.push(event{at: next, kind: evSample})
	}
}
