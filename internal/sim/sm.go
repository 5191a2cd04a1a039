package sim

import (
	"math/bits"

	duplo "duplo/internal/core"
	"duplo/internal/flat"
	"duplo/internal/trace"
)

// tcLoad names the row-vector loads of one tracked tensor-core load (each
// wmma.load macro-op issues tileRows row loads, §II-B: "a
// tensor-core-load instruction fetches 16 half-precision data, e.g. a row
// of matrix A"): row r has detection-unit sequence number seq+r and address
// addr + r*pitch, from which the unit regenerates the ID of the one LHB
// entry the row can own.
type tcLoad struct {
	seq   uint64
	addr  uint64
	pitch uint32
}

// lhbReleaseEvt schedules the release of a retired load's LHB entries.
type lhbReleaseEvt struct {
	at int64
	tcLoad
}

// robEntry tracks one in-flight instruction for in-order retirement;
// tracked marks a tensor-core load whose rows consulted the LHB.
type robEntry struct {
	complete int64
	tracked  bool
	tcLoad
}

// warpCtx is the execution state of one warp slot. prog is the kernel's
// shared canonical program for this warp's tile shape; aOff/bOff/dOff
// relocate its addresses to the warp's absolute tile origin at decode time
// (kernel.warpOffsets), which is what lets every same-shape warp of every
// CTA share one immutable program.
type warpCtx struct {
	active           bool
	prog             *warpProgram
	aOff, bOff, dOff uint64
	pc               int
	cur              Instr // decoded prog.At(pc), relocated
	curOK            bool
	slot             int // SM warp slot (detection-unit warp id)
	cta              int // resident-CTA index on this SM
	age              int64
	regReady         []int64
	rob              []robEntry
	robHead          int
}

func (w *warpCtx) decode() {
	if !w.curOK && w.pc < w.prog.Len() {
		w.cur = w.prog.At(w.pc)
		relocateInstr(&w.cur, w.aOff, w.bOff, w.dOff)
		w.curOK = true
	}
}

func (w *warpCtx) advance() {
	w.pc++
	w.curOK = false
}

func (w *warpCtx) robEmpty() bool { return w.robHead >= len(w.rob) }

func (w *warpCtx) finished() bool {
	return w.pc >= w.prog.Len() && w.robEmpty()
}

// smState models one streaming multiprocessor: warp slots, GTO schedulers,
// tensor-core processing blocks, the LDST unit with its L1, and (optionally)
// the Duplo detection unit.
type smState struct {
	cfg Config
	id  int
	mem *memSystem
	gpu *gpuState
	du  *duplo.DetectionUnit
	tr  trace.Tracer // nil unless Config.Tracer is set
	l1  *cacheArray  // each way carries its line's pending fill cycle
	// mshr holds the misses in flight whose lines the L1 evicted before
	// their fill landed: lineAddr -> fill cycle.
	mshr flat.Table
	// mshrSweepAt is the MSHR table size that triggers the next sweep of
	// dead entries (see mshrSweepMin).
	mshrSweepAt int

	l1Port int64             // next free L1 tag-port cycle (1 line/cycle)
	pbFree [Schedulers]int64 // per-scheduler processing-block (tensor core) free cycle

	warps []warpCtx
	// schedLive is the live-warp scoreboard folded per scheduler: bit k of
	// schedLive[sid] mirrors warps[sid+k*Schedulers].active, which keeps
	// scheduleOne's strided oldest-first scan in slot order while touching
	// only live slots. Only activateSlot/deactivateSlot maintain it.
	schedLive [Schedulers]uint64
	greedy    [Schedulers]int // per-scheduler greedy warp slot (GTO)
	ldstBusy  []int64

	// schedWake[sid] is the first cycle at which scheduler sid can issue,
	// as its last pass that issued nothing found it: the earliest gate over
	// its live warps. schedBlocked[sid] records whether that pass found a
	// warp waiting on the full LDST queue. Until schedWake[sid], tick
	// charges sid's stall without running it (scheduleOne has the proof);
	// activateSlot resets the wake, since a placed warp can issue at once.
	schedWake    [Schedulers]int64
	schedBlocked [Schedulers]bool

	// robHeads is a min-heap of the live warps' ROB heads by completion
	// cycle, one entry per warp whose ROB is non-empty: robPush adds a
	// warp's entry when its ROB was empty, and retire pops the due ones
	// and pushes each warp's new head. Its top is retireDue.
	robHeads robHeap
	// ldstDue is the earliest ldstBusy completion (farFuture: none). Only
	// drainLDST drops a queue slot, and it recomputes ldstDue as it scans;
	// ldstPush lowers it. nextWake reads it instead of scanning again.
	ldstDue int64

	// lhbRelease[lhbHead:] is a FIFO of pending LHB entry releases: a
	// retired load's entries are released retireDelay cycles after the
	// instruction pops from the ROB (the modeled register lifetime;
	// release times are monotone because pops are).
	lhbRelease []lhbReleaseEvt
	lhbHead    int

	ctaWarpsLeft map[int]int // resident CTA -> unfinished warps
	resident     int

	// The SM's own clock (gpuState.runLoops): the SM next ticks at wake;
	// lastTick is the last cycle it ticked or settled, and ldstBlocked the
	// LDST-blocked scheduler count that tick observed — the per-cycle
	// stall profile of every cycle it skips until wake.
	wake        int64
	lastTick    int64
	ldstBlocked int

	stats   Stats
	lineBuf []uint64
}

// l1Ways is the L1's associativity.
const l1Ways = 8

func newSM(cfg Config, id int, mem *memSystem, gpu *gpuState) *smState {
	sm := &smState{
		cfg:          cfg,
		id:           id,
		mem:          mem,
		gpu:          gpu,
		tr:           cfg.Tracer,
		l1:           newCacheArray(cfg.L1KB<<10, lineBytes, l1Ways),
		warps:        make([]warpCtx, MaxWarpsPerSM),
		ctaWarpsLeft: make(map[int]int),
		lineBuf:      make([]uint64, 0, 64),
		mshrSweepAt:  mshrSweepMin,
		ldstDue:      farFuture,
	}
	for i := range sm.greedy {
		sm.greedy[i] = -1
	}
	return sm
}

// activateSlot marks warp slot s live in schedLive (warps[s].active is set
// by the caller's slot initialization) and wakes its scheduler.
func (sm *smState) activateSlot(s int) {
	sid := s % Schedulers
	sm.schedLive[sid] |= 1 << uint(s/Schedulers)
	sm.schedWake[sid] = 0
}

// deactivateSlot retires warp slot s from schedLive.
func (sm *smState) deactivateSlot(s int) {
	sm.warps[s].active = false
	sm.schedLive[s%Schedulers] &^= 1 << uint(s/Schedulers)
}

// placeCTA installs a CTA's warps into free slots. Caller guarantees
// capacity (warpsPerCTA free slots). Warps share the kernel's memoized
// canonical program for their tile shape; only the per-warp address
// offsets and the recycled regReady/rob backing arrays are written. Every
// placed program is non-empty (rt*ct >= 1 tile stores, newWarpProgram), so
// a placed warp finishes only when its last ROB entry pops inside retire —
// which is what lets tick skip retire until retireDue.
func (sm *smState) placeCTA(k *Kernel, cta int, launchSeq int64) {
	live := 0
	for w := 0; w < warpsPerCTA; w++ {
		rt, ct, firstRow, firstCol := k.warpShape(cta, w)
		if rt == 0 || ct == 0 {
			continue // edge warp with no tiles
		}
		prog := k.program(rt, ct)
		aOff, bOff, dOff := k.warpOffsets(firstRow, firstCol)
		// Find a free slot.
		for s := range sm.warps {
			if sm.warps[s].active {
				continue
			}
			wc := &sm.warps[s]
			// Recycle the slot's regReady backing array across CTA waves
			// (the rob backing array is recycled the same way below).
			rr := wc.regReady
			if cap(rr) < prog.RegGroups() {
				rr = make([]int64, prog.RegGroups())
			} else {
				rr = rr[:prog.RegGroups()]
				for i := range rr {
					rr[i] = 0
				}
			}
			*wc = warpCtx{
				active:   true,
				prog:     prog,
				aOff:     aOff,
				bOff:     bOff,
				dOff:     dOff,
				slot:     s,
				cta:      cta,
				age:      launchSeq*int64(warpsPerCTA) + int64(w),
				regReady: rr,
				rob:      wc.rob[:0],
			}
			sm.activateSlot(s)
			live++
			break
		}
	}
	if live == 0 {
		// Degenerate CTA (fully out of range): nothing resident.
		return
	}
	sm.ctaWarpsLeft[cta] = live
	sm.resident++
}

// tick advances the SM by one cycle: LHB releases, retirement, LDST queue
// drain, then one scheduling attempt per warp scheduler. A scheduler whose
// wake has not come stalls without a pass (unless cfg.denseClock), as its
// pass would have. It returns how many instructions issued, and records
// the cycle and how many schedulers stalled on a full LDST queue, which
// settle charges to every cycle the SM then skips.
func (sm *smState) tick(now int64) (issued int) {
	sm.releaseLHB(now)
	if sm.retireDue() <= now {
		sm.retire(now)
	}
	if sm.ldstDue <= now {
		sm.drainLDST(now)
	}
	if sm.mshr.Len() > sm.mshrSweepAt {
		sm.sweepMSHR(now)
	}
	ldstBlocked := 0
	for sid := range Schedulers {
		if (sm.cfg.denseClock || sm.schedWake[sid] <= now) && sm.scheduleOne(sid, now) {
			issued++
			continue
		}
		// Scheduler sid stalls: its last pass, this cycle or before its
		// wake, recorded whether the LDST queue holds it.
		sm.stats.IssueStallCycles++
		if sm.schedBlocked[sid] {
			sm.stats.LDSTStallCycles++
			ldstBlocked++
		}
	}
	if sm.tr != nil && issued < Schedulers {
		// Every non-issuing scheduler counted one IssueStallCycle this
		// tick; fold them into a single stall event.
		sm.tr.Emit(sm.id, trace.Event{
			Cycle: now, Kind: trace.KindStall,
			A: int64(Schedulers - issued), B: int64(ldstBlocked),
			Sched: -1, Warp: -1,
		})
	}
	sm.lastTick, sm.ldstBlocked = now, ldstBlocked
	return issued
}

// settle accounts the ticks this SM skipped before cycle now (those after
// lastTick). The SM skips only cycles before its wake, and nextWake covers
// every event that could change what a tick does, so each skipped tick
// would have stalled all schedulers with the LDST blockage the last tick
// observed: the counters advance arithmetically, and the tracer gets one
// KindStallSpan to apportion across its intervals the same way.
func (sm *smState) settle(now int64) {
	span := now - 1 - sm.lastTick
	if span <= 0 {
		return
	}
	sm.lastTick = now - 1
	sm.stats.IssueStallCycles += span * Schedulers
	sm.stats.LDSTStallCycles += span * int64(sm.ldstBlocked)
	if sm.tr != nil {
		sm.tr.Emit(sm.id, trace.Event{
			Cycle: now - span, Kind: trace.KindStallSpan,
			A: span, B: int64(sm.ldstBlocked),
			Sched: -1, Warp: -1,
		})
	}
}

// retire pops completed instructions in program order per warp.
// Retired tensor-core-loads schedule their LHB entry releases retireDelay
// cycles later: with the warp-register renaming of [15], a destination
// register group stays valid well past instruction completion, until the
// rename pool reclaims it; retireDelay is the calibrated model of that
// reuse window (§V-C governs the hit-rate ceiling through it).
//
// Only the warps whose ROB head is due run, popped from robHeads, and they
// run in ascending slot order, whatever order the heap pops them in: a
// full scan of the live warps would find nothing to do in any other, and
// its slot order fixes the order of lhbRelease appends and which of two
// CTAs finishing in one tick backfills first.
func (sm *smState) retire(now int64) {
	var due uint64 // bit s: slot s's ROB head popped
	for sm.retireDue() <= now {
		due |= 1 << uint(sm.robHeads.pop().slot)
	}
	for due != 0 {
		s := bits.TrailingZeros64(due)
		due &^= 1 << uint(s)
		w := &sm.warps[s]
		sm.retireWarp(w, s, now)
		if !w.robEmpty() {
			sm.robHeads.push(robHead{complete: w.rob[w.robHead].complete, slot: s})
		}
	}
}

// retireDue is the earliest head-ROB completion over the live warps
// (farFuture: none), the cycle at which retire next has work.
func (sm *smState) retireDue() int64 {
	if len(sm.robHeads) == 0 {
		return farFuture
	}
	return sm.robHeads[0].complete
}

// robPush appends e to warp w's ROB, entering w in robHeads when e becomes
// the head.
func (sm *smState) robPush(w *warpCtx, e robEntry) {
	if w.robEmpty() {
		sm.robHeads.push(robHead{complete: e.complete, slot: w.slot})
	}
	w.rob = append(w.rob, e)
}

// robHead is a robHeads entry: warp slot's ROB head completes at complete.
type robHead struct {
	complete int64
	slot     int
}

// robHeap is a binary min-heap of robHead by completion cycle. Equal
// cycles pop in any order; retire sorts what it pops by slot.
type robHeap []robHead

func (h *robHeap) push(e robHead) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].complete <= e.complete {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	*h = a
}

func (h *robHeap) pop() robHead {
	a := *h
	top, n := a[0], len(a)-1
	last := a[n]
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].complete < a[c].complete {
			c++
		}
		if last.complete <= a[c].complete {
			break
		}
		a[i] = a[c]
		i = c
	}
	if n > 0 {
		a[i] = last
	}
	*h = a
	return top
}

// retireWarp pops warp s's completed ROB entries and releases its slot once
// the program has drained (the per-warp body of retire; s is always live).
func (sm *smState) retireWarp(w *warpCtx, s int, now int64) {
	for !w.robEmpty() {
		e := &w.rob[w.robHead]
		if e.complete > now {
			break
		}
		if e.tracked {
			sm.lhbRelease = append(sm.lhbRelease, lhbReleaseEvt{at: now + retireDelay, tcLoad: e.tcLoad})
		}
		w.robHead++
		// Forward-progress heartbeat for the watchdog: a ROB pop covers
		// both instruction retirement and memory-request completion (a
		// completed request pops when it reaches the head).
		sm.gpu.progress++
	}
	if w.robHead > 0 && w.robEmpty() {
		w.rob = w.rob[:0]
		w.robHead = 0
	}
	if w.finished() {
		sm.deactivateSlot(s)
		left := sm.ctaWarpsLeft[w.cta] - 1
		if left == 0 {
			delete(sm.ctaWarpsLeft, w.cta)
			sm.resident--
			sm.gpu.ctaDone(sm, now)
		} else {
			sm.ctaWarpsLeft[w.cta] = left
		}
	}
}

// releaseLHB applies due entry releases (FIFO; times are monotone).
func (sm *smState) releaseLHB(now int64) {
	i := sm.lhbHead
	for i < len(sm.lhbRelease) && sm.lhbRelease[i].at <= now {
		e := &sm.lhbRelease[i]
		sm.du.RetireTile(e.addr, e.pitch, e.seq)
		if sm.tr != nil {
			sm.tr.Emit(sm.id, trace.Event{
				Cycle: now, Kind: trace.KindLHBRelease,
				A: tileRows, Sched: -1, Warp: -1,
			})
		}
		i++
	}
	sm.lhbHead = i
	if i > len(sm.lhbRelease)/2 {
		// Compact in place once the head passes half the slice, so the
		// slice reuses its backing array instead of marching through
		// memory, and each pending entry is copied O(1) times on average.
		n := copy(sm.lhbRelease, sm.lhbRelease[i:])
		sm.lhbRelease, sm.lhbHead = sm.lhbRelease[:n], 0
	}
}

// drainLDST frees queue slots whose memory operations completed and
// recomputes ldstDue over the rest.
func (sm *smState) drainLDST(now int64) {
	q := sm.ldstBusy[:0]
	due := farFuture
	for _, t := range sm.ldstBusy {
		if t > now {
			q = append(q, t)
			due = min(due, t)
		}
	}
	sm.ldstBusy, sm.ldstDue = q, due
}

// ldstPush occupies an LDST queue slot until cycle t.
func (sm *smState) ldstPush(t int64) {
	sm.ldstBusy = append(sm.ldstBusy, t)
	sm.ldstDue = min(sm.ldstDue, t)
}

// mshrSweepMin is the smallest MSHR table size that triggers a sweep of
// dead entries. The table holds only the lines the L1 evicted before their
// fill landed (a resident line's pending fill rides in its L1 way). An
// entry whose fill has passed is dead — accessLine treats it as absent —
// but it leaves the table only when its line is requested again, so
// without a sweep the table would keep one entry per such eviction over a
// multi-million-cycle run. Live entries are bounded by the misses in
// flight (at most ldstQueueDepth loads' worth of lines), which can exceed
// this size, so the next sweep waits until the table is twice what the
// last one left: a table full of live misses is not swept on every tick.
const mshrSweepMin = 256

// sweepMSHR drops the MSHR entries whose fills are in the past. It is
// behavior-invisible: accessLine deletes a passed entry on first touch
// anyway, and the fill <= now condition is per-entry, so the table's slot
// order cannot leak into results.
func (sm *smState) sweepMSHR(now int64) {
	sm.mshr.DeleteFunc(func(_ uint64, fill int64) bool { return fill <= now })
	sm.mshrSweepAt = max(mshrSweepMin, 2*sm.mshr.Len())
}

// scheduleOne runs one warp scheduler for one cycle, greedy-then-oldest,
// and reports whether it issued. A pass that issues nothing has gated every
// live warp of sid, so it records the earliest gate in schedWake[sid] and
// whether any warp waits on the full LDST queue in schedBlocked[sid].
//
// Until that wake, a pass would find the same: a gate reads only the
// warp's regReady and pc, pbFree[sid] and len(ldstBusy). The first three
// change only when sid issues; the queue shrinks only at ldstDue, and a
// full queue takes no push, so a warp waiting on it waits until ldstDue;
// a register-gated warp's queue wait starts at its gate, which the wake
// covers. A placed warp resets the wake (activateSlot).
func (sm *smState) scheduleOne(sid int, now int64) bool {
	wake, blocked := farFuture, false
	gated := func(at int64, why gateReason) {
		wake = min(wake, at)
		blocked = blocked || why == gateLDST
	}
	// Candidate order: the greedy warp first, then all of this scheduler's
	// warps oldest-first.
	g := sm.greedy[sid]
	if g >= 0 {
		if w := &sm.warps[g]; w.active && w.pc < w.prog.Len() {
			at, why := sm.gate(sid, w, now)
			if at <= now {
				sm.issue(sid, w, now)
				return true
			}
			gated(at, why)
		}
	}
	// Oldest-first scan over this scheduler's live warp slots (the
	// schedLive scoreboard walks them in the same ascending-slot order as
	// the pre-bitset strided loop). Once a warp can issue, only older ones
	// are gated; a pass that issues nothing gates them all.
	best := -1
	var bestAge int64 = 1 << 62
	for live := sm.schedLive[sid]; live != 0; {
		k := bits.TrailingZeros64(live)
		live &^= 1 << uint(k)
		s := k*Schedulers + sid
		w := &sm.warps[s]
		if w.pc >= w.prog.Len() || s == g || w.age >= bestAge {
			continue
		}
		if at, why := sm.gate(sid, w, now); at <= now {
			best, bestAge = s, w.age
		} else {
			gated(at, why)
		}
	}
	if best >= 0 {
		sm.issue(sid, &sm.warps[best], now)
		sm.greedy[sid] = best
		return true
	}
	sm.greedy[sid] = -1
	sm.schedWake[sid], sm.schedBlocked[sid] = wake, blocked
	return false
}

// gateReason names what holds a warp's current instruction back.
type gateReason uint8

const (
	gateOpen gateReason = iota // issuable now
	gateReg                    // a source or destination register is not ready
	gatePB                     // an MMA's processing block is busy
	gateLDST                   // a load or store finds the LDST queue full
)

// gate returns the first cycle at which warp w's current instruction can
// issue on scheduler sid (<= now: it can issue now) and the reason it
// waits. The cycle is exact while neither sid issues nor the LDST queue
// drains: an MMA waits for the latest of its three registers, then for
// its processing block; a load or store waits for its register, then, on a
// full queue, for the queue's next drain at ldstDue.
func (sm *smState) gate(sid int, w *warpCtx, now int64) (int64, gateReason) {
	w.decode()
	in := &w.cur
	if in.Op == OpMMA {
		if at := max(w.regReady[in.SrcA], w.regReady[in.SrcB], w.regReady[in.Dst]); at > now {
			return max(at, sm.pbFree[sid]), gateReg
		}
		if at := sm.pbFree[sid]; at > now {
			return at, gatePB
		}
		return now, gateOpen
	}
	reg := in.Dst // a load's destination; a store's source
	if in.Op == OpStoreD {
		reg = in.SrcA
	}
	if at := w.regReady[reg]; at > now {
		return at, gateReg
	}
	if len(sm.ldstBusy) >= ldstQueueDepth {
		return sm.ldstDue, gateLDST
	}
	return now, gateOpen
}

// issue issues warp w's current instruction, which gate has passed.
func (sm *smState) issue(sid int, w *warpCtx, now int64) {
	in := w.cur
	sm.stats.Instructions++
	if sm.tr != nil {
		ev := trace.Event{
			Cycle: now, Kind: trace.KindIssue, Addr: in.Addr,
			Op: int8(in.Op), Sched: int8(sid), Warp: int16(w.slot),
		}
		if in.Op == OpLoadA || in.Op == OpLoadB {
			ev.A = tileRows // row-vector loads this macro-op expands into
		}
		sm.tr.Emit(sm.id, ev)
	}
	switch in.Op {
	case OpLoadA, OpLoadB:
		sm.issueLoad(w, in, now)
	case OpMMA:
		sm.stats.MMAs++
		sm.pbFree[sid] = now + MMAInitiation
		w.regReady[in.Dst] = now + mmaLatency
		sm.robPush(w, robEntry{complete: now + mmaLatency})
	case OpStoreD:
		sm.issueStore(w, in, now)
	}
	w.advance()
}

// issueLoad processes a wmma.load macro-op. Following §II-B, the macro-op
// expands into 16 row-vector loads (one 16-element row of the tile each);
// each row load consults the Duplo detection unit individually (row IDs are
// what the LHB tracks; AccessTile resolves the 16 in row order), and only
// the rows that miss generate line requests.
func (sm *smState) issueLoad(w *warpCtx, in Instr, now int64) {
	sm.stats.TensorLoads += tileRows
	load := tcLoad{addr: in.Addr, pitch: in.RowPitch}
	var res [tileRows]duplo.AccessResult // all AccessBypass without Duplo
	if sm.du != nil {
		load.seq = sm.du.AccessTile(w.slot, int(in.Dst), in.Addr, in.RowPitch, &res)
	}
	var trackedRows uint32 // bit r: row r has an LHB entry (res[r].ID)
	var complete int64
	anyMem := false
	sm.lineBuf = sm.lineBuf[:0]

	for r := 0; r < tileRows; r++ {
		rowAddr := in.Addr + uint64(r)*uint64(in.RowPitch)
		if res[r].Kind != duplo.AccessBypass {
			trackedRows |= 1 << r
		}
		if res[r].Kind == duplo.AccessHit {
			// Row eliminated: rename after the detection latency; the
			// consumer waits for the original load's data via the
			// scoreboard (entry meta carries its ready cycle).
			sm.stats.LoadsEliminated++
			complete = max(complete, now+int64(sm.du.Latency()), res[r].Meta)
			// Parallel L1 lookup happens anyway (energy), then cancels.
			sm.stats.L1Accesses++
			sm.stats.ServiceLines[ServiceLHB]++
			if sm.tr != nil {
				sm.tr.Emit(sm.id, trace.Event{
					Cycle: now, Kind: trace.KindLHBHit, Addr: rowAddr,
					Sched: -1, Warp: int16(w.slot),
				})
			}
			continue
		}
		anyMem = true
		sm.lineBuf = appendRowLines(sm.lineBuf, rowAddr, in.RowBytes)
	}

	// Memory path for the missing rows: line requests serialized on the L1
	// tag port.
	var memReady int64
	for _, line := range sm.lineBuf {
		t := now
		if sm.l1Port > t {
			t = sm.l1Port
		}
		sm.l1Port = t + 1
		ready, src := sm.accessLine(line, t)
		if ready > memReady {
			memReady = ready
		}
		sm.stats.ServiceLines[src]++
		if sm.tr != nil {
			sm.tr.Emit(sm.id, trace.Event{
				Cycle: t, Kind: trace.KindService, Addr: line,
				Level: int8(src), Sched: -1, Warp: int16(w.slot),
			})
		}
	}
	if memReady > complete {
		complete = memReady
	}
	if complete == 0 {
		complete = now + 1
	}
	w.regReady[in.Dst] = complete
	if anyMem {
		sm.ldstPush(complete)
	}
	sm.robPush(w, robEntry{complete: complete, tracked: trackedRows != 0, tcLoad: load})
	if trackedRows != 0 && anyMem {
		// Record the data-ready cycle in the rows' LHB entries so later
		// hits wait for the data (meta update after the miss resolved).
		for r := 0; r < tileRows; r++ {
			if trackedRows&(1<<r) != 0 {
				sm.du.SetMeta(res[r].ID, complete)
			}
		}
	}
}

// accessLine performs one read line access at cycle t (post port
// arbitration) and returns (data-ready cycle, serving level). It walks the
// line's L1 set once: a resident line whose fill is still pending merges
// into that miss without touching recency, any other resident line hits,
// and only an L1 miss asks the MSHR table for a miss in flight to an
// evicted line before going to the L2. The L1 port serializes requests, so
// t never decreases: a fill that has landed stays landed, which is why a
// miss moves only a victim with a pending fill into the table.
func (sm *smState) accessLine(line uint64, t int64) (int64, ServiceLevel) {
	sm.stats.L1Accesses++
	set, i := sm.l1.find(line)
	if i >= 0 {
		if fill := sm.l1.lines[i].fill; fill > t {
			return sm.merge(line, fill, t), ServiceL1
		}
		sm.l1.touch(set, i)
		sm.stats.L1Hits++
		return t + l1LatencyCycles, ServiceL1
	}
	if fill, pending := sm.mshr.Get(line); pending {
		if fill > t {
			return sm.merge(line, fill, t), ServiceL1
		}
		sm.mshr.Delete(line)
	}
	fill, src := sm.mem.readLine(line, t+l1LatencyCycles)
	if victim, evicted := sm.l1.insert(set, cacheWay{tag: line, fill: fill}); evicted && victim.fill > t {
		sm.mshr.Set(victim.tag, victim.fill)
	}
	return fill, src
}

// merge folds a line request at cycle t into the miss in flight that fills
// line at cycle fill, and returns fill.
func (sm *smState) merge(line uint64, fill, t int64) int64 {
	sm.stats.MSHRMerges++
	sm.stats.L1Hits++ // serviced without new traffic
	if sm.tr != nil {
		sm.tr.Emit(sm.id, trace.Event{
			Cycle: t, Kind: trace.KindMSHRMerge, Addr: line,
			Sched: -1, Warp: -1,
		})
	}
	return fill
}

// missesInFlight counts the line misses whose fills land after cycle now:
// the L1 ways still waiting on their fill plus the live MSHR entries.
func (sm *smState) missesInFlight(now int64) int {
	n := sm.l1.pending(now)
	sm.mshr.Range(func(_ uint64, fill int64) {
		if fill > now {
			n++
		}
	})
	return n
}

// issueStore processes a wmma.store.d: write-through line transactions.
func (sm *smState) issueStore(w *warpCtx, in Instr, now int64) {
	sm.stats.Stores++
	if sm.du != nil {
		sm.du.Store(in.Addr) // consistency hook (§IV-B); no-op outside workspace
	}
	sm.lineBuf = lineSpan(sm.lineBuf[:0], in)
	for range sm.lineBuf {
		t := now
		if sm.l1Port > t {
			t = sm.l1Port
		}
		sm.l1Port = t + 1
		sm.stats.L1Accesses++
		sm.mem.writeLine(t)
	}
	complete := now + storeLatency
	sm.ldstPush(complete)
	sm.robPush(w, robEntry{complete: complete})
}

// busy reports whether any warp is resident.
func (sm *smState) busy() bool { return sm.resident > 0 }

// farFuture is the sentinel wake cycle for "no pending event".
const farFuture = int64(1) << 62

// nextWake returns the next cycle (> now, or farFuture when the SM has
// nothing pending) at which this SM's tick could do anything a
// fully-stalled tick would not: issue an instruction, retire a ROB entry,
// release an LHB entry, or drain an LDST queue slot. The SM sleeps until
// then (gpuState.runLoops). Only the SM's own ticks change these events —
// other SMs reach it through memSystem and the CTA dispatcher, which it
// touches only when it ticks — so the cycle holds however the rest of the
// chip runs. runLoops calls it only after a tick(now) in which this SM
// issued nothing, so every scheduler's pass failed or was skipped and each
// recorded its wake; the wake set is
//
//   - ldstDue, the earliest ldstBusy drain,
//   - the head lhbRelease.at (LHB entry releases run at exact cycles),
//   - retireDue, the earliest head ROB entry's complete cycle over the
//     active warps (in-order retire, so a head always pops first),
//   - each scheduler's schedWake, the earliest gate over its warps.
//
// The L1 tag port's free cycle is not in it: no tick acts then, the port
// only delays a later load's line requests. Any stale event (<= now)
// clamps to now+1 — the clock may refuse to skip, but can never be sent
// backwards or past a wake (the deadlock guard, asserted by
// TestNextWakeNeverInPast).
func (sm *smState) nextWake(now int64) int64 {
	wake := min(sm.ldstDue, sm.retireDue())
	if sm.lhbHead < len(sm.lhbRelease) {
		wake = min(wake, sm.lhbRelease[sm.lhbHead].at) // FIFO with monotone times: head is earliest
	}
	for _, t := range sm.schedWake {
		wake = min(wake, t)
	}
	return max(wake, now+1)
}
