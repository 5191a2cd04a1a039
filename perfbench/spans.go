package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"duplo/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public API it calls. The layer is the name up to the first dot
// ("store.get" belongs to "store").
type span struct {
	name       string
	lane       int   // timeline track: 0 = main goroutine, n = client n
	parent     int   // index of the enclosing span, -1 for a root
	req        int64 // request id shared by one request's spans (0 = none)
	start, end time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op, so the measured code paths
// are the same with tracing on and off.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, lane, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, lane: lane, parent: parent, req: req, start: now, end: now})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// layerOf is the layer a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of its interval covered by its children. Children may overlap each other
// (concurrent calls under one parent); the covered part is their union,
// clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[layerOf(s.name)] += s.end - s.start - covered(s, spans, children[i])
	}
	return out
}

// covered measures the union of the child intervals clipped to parent p.
func covered(p span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < p.start {
			a = p.start
		}
		if b > p.end {
			b = p.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(0), time.Duration(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeTimeline exports the spans as a Perfetto timeline (one track per
// lane, the request id as each span's argument) through trace.Timeline.
func writeTimeline(path, process string, spans []span) error {
	tl := trace.NewTimeline(process)
	tracks := make(map[int]int)
	lanes := make([]int, 0)
	for _, s := range spans {
		if _, ok := tracks[s.lane]; !ok {
			tracks[s.lane] = -1
			lanes = append(lanes, s.lane)
		}
	}
	sort.Ints(lanes)
	for _, l := range lanes {
		name := "main"
		if l > 0 {
			name = fmt.Sprintf("client %d", l)
		}
		tracks[l] = tl.Track(name)
	}
	for _, s := range spans {
		tl.SpanArg(tracks[s.lane], s.name, s.start.Microseconds(), (s.end - s.start).Microseconds(), "req", s.req)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
