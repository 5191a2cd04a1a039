// Package trace is the simulator's observability subsystem: a low-overhead
// event vocabulary the sim core emits into (internal/sim carries a
// trace.Tracer in its Config), a concurrency-safe Collector that captures
// events into per-SM ring buffers and folds them into per-interval
// time-series counters, and exporters that turn a collected run into a
// Chrome trace-event / Perfetto JSON timeline or a CSV time-series dump.
//
// Tracing is strictly observational: an attached Tracer never changes the
// simulated machine's behaviour, so a traced run's Result is byte-identical
// to an untraced one (asserted by the differential tests in internal/sim).
// With a nil Tracer every emit site in the sim core is a single pointer
// comparison — the hot path does zero tracing work by default.
//
// The same vocabulary backs all consumers: the Perfetto timeline, the
// interval metrics CSV, and the textual trace-ring tail of a crash dump —
// one tracing subsystem, not three (DESIGN.md §4).
package trace

import "fmt"

// Kind discriminates pipeline events. Each kind documents how the generic
// payload fields (A, B, Addr, Op, Level) are interpreted.
type Kind uint8

const (
	// KindIssue: a warp scheduler issued one instruction. Sched and Warp
	// identify the scheduler and warp slot, Op the instruction class, Addr
	// the memory address (loads/stores; 0 for MMA). A is the number of
	// row-vector tensor-core loads the instruction expands into (16 for a
	// wmma.load macro-op, 0 otherwise, §II-B).
	KindIssue Kind = iota
	// KindStall: at least one scheduler found no issuable warp this cycle.
	// A is the number of stalled schedulers, B how many of those were
	// blocked (at least in part) by a full LDST queue (§V-B).
	KindStall
	// KindStallSpan: the event-driven clock skipped this SM's ticks over
	// the span [Cycle, Cycle+A): every scheduler of this SM stalled on
	// each skipped cycle. A is the span length in cycles, B the per-cycle
	// count of LDST-blocked schedulers observed at the tick preceding the
	// skip. A collector must apportion the span's stall cycles
	// arithmetically across the intervals it crosses (same discipline as
	// the SM's counter accounting, smState.settle in internal/sim).
	KindStallSpan
	// KindLHBHit: a row-vector load was eliminated by the detection unit —
	// an LHB hit renamed the destination to the previous load's registers
	// (§IV-B). Warp is the warp slot, Addr the row address.
	KindLHBHit
	// KindService: one cache-line request was serviced. Level is the
	// supplying level (LevelL1/LevelL2/LevelDRAM), Addr the line address,
	// Cycle the L1 tag-port cycle of the access.
	KindService
	// KindMSHRMerge: a line request merged into an in-flight L1 miss
	// instead of generating new traffic. Addr is the line address.
	KindMSHRMerge
	// KindLHBRelease: a retired tensor-core-load's LHB entries were
	// released after the register-reuse window (§V-C). A is the number of
	// entries released.
	KindLHBRelease
	numKinds
)

// String names the kind for the textual dump.
func (k Kind) String() string {
	switch k {
	case KindIssue:
		return "issue"
	case KindStall:
		return "stall"
	case KindStallSpan:
		return "stall-span"
	case KindLHBHit:
		return "lhb-hit"
	case KindService:
		return "service"
	case KindMSHRMerge:
		return "mshr-merge"
	case KindLHBRelease:
		return "lhb-release"
	}
	return "?"
}

// Service levels, mirroring internal/sim's ServiceLevel values (the Fig. 11
// vocabulary). The correspondence is asserted by internal/sim's trace tests;
// trace cannot import sim (sim imports trace).
const (
	LevelLHB int8 = iota
	LevelL1
	LevelL2
	LevelDRAM
	NumLevels
)

// LevelName names a service level like the Fig. 11 legend.
func LevelName(l int8) string {
	switch l {
	case LevelLHB:
		return "LHB"
	case LevelL1:
		return "L1$"
	case LevelL2:
		return "L2$"
	case LevelDRAM:
		return "DRAM"
	}
	return "?"
}

// Instruction classes, mirroring internal/sim's Op values (asserted by the
// same tests).
const (
	OpLoadA int8 = iota
	OpLoadB
	OpMMA
	OpStoreD
	numOps
)

// OpName names the instruction class like PTX.
func OpName(op int8) string {
	switch op {
	case OpLoadA:
		return "wmma.load.a"
	case OpLoadB:
		return "wmma.load.b"
	case OpMMA:
		return "wmma.mma"
	case OpStoreD:
		return "wmma.store.d"
	}
	return "?"
}

// Event is one pipeline occurrence at a cycle on one SM. The SM index is
// not part of the event; it is the first argument of Tracer.Emit (events
// are stored per SM).
type Event struct {
	Cycle int64
	Addr  uint64
	A, B  int64 // kind-specific payloads (see Kind docs)
	Kind  Kind
	Op    int8  // instruction class (KindIssue)
	Level int8  // service level (KindService)
	Sched int8  // scheduler id (KindIssue), -1 otherwise
	Warp  int16 // warp slot (KindIssue, KindLHBHit), -1 otherwise
}

// Format renders the event as one line of the textual dump (a crash
// dump's trace-ring tail).
func Format(sm int, e Event) string {
	switch e.Kind {
	case KindIssue:
		s := fmt.Sprintf("cyc %8d  sm%d sch%d w%02d  %-12s %-13s", e.Cycle, sm, e.Sched, e.Warp, e.Kind, OpName(e.Op))
		if e.Op != OpMMA {
			s += fmt.Sprintf("  addr=%#x", e.Addr)
		}
		return s
	case KindStall:
		return fmt.Sprintf("cyc %8d  sm%d          %-12s %d schedulers (%d ldst-blocked)", e.Cycle, sm, e.Kind, e.A, e.B)
	case KindStallSpan:
		return fmt.Sprintf("cyc %8d  sm%d          %-12s %d cycles (%d ldst-blocked/cycle)", e.Cycle, sm, e.Kind, e.A, e.B)
	case KindLHBHit:
		return fmt.Sprintf("cyc %8d  sm%d      w%02d  %-12s row=%#x", e.Cycle, sm, e.Warp, e.Kind, e.Addr)
	case KindService:
		return fmt.Sprintf("cyc %8d  sm%d          %-12s %-4s line=%#x", e.Cycle, sm, e.Kind, LevelName(e.Level), e.Addr)
	case KindMSHRMerge:
		return fmt.Sprintf("cyc %8d  sm%d          %-12s line=%#x", e.Cycle, sm, e.Kind, e.Addr)
	case KindLHBRelease:
		return fmt.Sprintf("cyc %8d  sm%d          %-12s %d entries", e.Cycle, sm, e.Kind, e.A)
	}
	return fmt.Sprintf("cyc %8d  sm%d  ?kind=%d", e.Cycle, sm, e.Kind)
}

// Tracer receives pipeline events from the sim core. Implementations must
// be safe for concurrent use by multiple simulations only if they are
// actually shared across them; within one simulation, events for one SM
// arrive from a single goroutine in cycle order (except KindService /
// KindMSHRMerge, whose cycles are port-arbitrated and may trail the
// emission front).
type Tracer interface {
	Emit(sm int, e Event)
}

// Nop is a Tracer that discards everything — the no-op implementation used
// by the differential tests to exercise the emit path without collecting.
type Nop struct{}

// Emit discards the event.
func (Nop) Emit(int, Event) {}
