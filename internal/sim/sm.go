package sim

import (
	"math/bits"

	duplo "duplo/internal/core"
	"duplo/internal/flat"
	"duplo/internal/trace"
)

// lhbReleaseEvt schedules the release of a retired load's LHB entries.
type lhbReleaseEvt struct {
	at    int64
	seqLo uint64
	seqHi uint64
}

// robEntry tracks one in-flight instruction for in-order retirement. For
// tensor-core loads, [seqLo, seqHi) is the range of detection-unit sequence
// numbers of the instruction's row-vector loads (each wmma.load macro-op
// issues 16 row loads, §II-B: "a tensor-core-load instruction fetches 16
// half-precision data, e.g. a row of matrix A").
type robEntry struct {
	complete int64
	isTCLoad bool
	seqLo    uint64
	seqHi    uint64
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

func (w *warpCtx) robPush(e robEntry) { w.rob = append(w.rob, e) }

func (w *warpCtx) robEmpty() bool { return w.robHead >= len(w.rob) }

func (w *warpCtx) finished() bool {
	return w.pc >= w.prog.Len() && w.robEmpty()
}

// smState models one streaming multiprocessor: warp slots, GTO schedulers,
// tensor-core processing blocks, the LDST unit with its L1, and (optionally)
// the Duplo detection unit.
type smState struct {
	cfg  Config
	id   int
	mem  *memSystem
	gpu  *gpuState
	du   *duplo.DetectionUnit
	tr   trace.Tracer // nil unless Config.Tracer is set
	l1   *cacheArray
	mshr flat.Table // lineAddr -> fill cycle

	l1Port int64   // next free L1 tag-port cycle (1 line/cycle)
	pbFree []int64 // per-scheduler processing-block (tensor core) free cycle

	warps []warpCtx
	// liveMask mirrors warps[s].active as a bitset (bit s of word s/64) so
	// the per-cycle scans (retire, nextWake) touch only live slots instead
	// of walking all MaxWarpsPerSM entries. schedLive is the same scoreboard
	// folded per scheduler: bit k of schedLive[sid] covers slot sid +
	// k*Schedulers, which keeps scheduleOne's strided oldest-first scan in
	// its original slot order. Both are maintained exclusively by
	// activateSlot/deactivateSlot.
	liveMask  []uint64
	schedLive [][]uint64
	greedy    []int // per-scheduler greedy warp slot (GTO)
	ldstBusy  []int64

	// lhbRelease is a FIFO of pending LHB entry releases: a retired load's
	// entries are released RetireDelay cycles after the instruction pops
	// from the ROB (the modeled register lifetime; release times are
	// monotone because pops are).
	lhbRelease []lhbReleaseEvt

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

func newSM(cfg Config, id int, mem *memSystem, gpu *gpuState) *smState {
	sm := &smState{
		cfg:          cfg,
		id:           id,
		mem:          mem,
		gpu:          gpu,
		tr:           cfg.Tracer,
		l1:           newCacheArray(cfg.L1KB<<10, cfg.LineBytes, 8),
		pbFree:       make([]int64, cfg.Schedulers),
		warps:        make([]warpCtx, cfg.MaxWarpsPerSM),
		greedy:       make([]int, cfg.Schedulers),
		ctaWarpsLeft: make(map[int]int),
		lineBuf:      make([]uint64, 0, 64),
	}
	sm.liveMask = make([]uint64, (len(sm.warps)+63)/64)
	sm.schedLive = make([][]uint64, cfg.Schedulers)
	perSched := (len(sm.warps) + cfg.Schedulers - 1) / cfg.Schedulers
	for i := range sm.schedLive {
		sm.schedLive[i] = make([]uint64, (perSched+63)/64)
	}
	for i := range sm.greedy {
		sm.greedy[i] = -1
	}
	return sm
}

// activateSlot marks warp slot s live in both scoreboards (warps[s].active
// is set by the caller's slot initialization).
func (sm *smState) activateSlot(s int) {
	sm.liveMask[s>>6] |= 1 << uint(s&63)
	k := s / sm.cfg.Schedulers
	sm.schedLive[s%sm.cfg.Schedulers][k>>6] |= 1 << uint(k&63)
}

// deactivateSlot retires warp slot s from both scoreboards.
func (sm *smState) deactivateSlot(s int) {
	sm.warps[s].active = false
	sm.liveMask[s>>6] &^= 1 << uint(s&63)
	k := s / sm.cfg.Schedulers
	sm.schedLive[s%sm.cfg.Schedulers][k>>6] &^= 1 << uint(k&63)
}

// placeCTA installs a CTA's warps into free slots. Caller guarantees
// capacity (warpsPerCTA free slots). Warps share the kernel's memoized
// canonical program for their tile shape; only the per-warp address
// offsets and the recycled regReady/rob backing arrays are written.
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
// drain, then one scheduling attempt per warp scheduler. It returns how
// many instructions issued, and records the cycle and how many schedulers
// stalled on a full LDST queue, which settle charges to every cycle the
// SM then skips.
func (sm *smState) tick(now int64) (issued int) {
	sm.releaseLHB(now)
	sm.retire(now)
	sm.drainLDST(now)
	ldstBlocked := 0
	for sid := 0; sid < sm.cfg.Schedulers; sid++ {
		ok, blocked := sm.scheduleOne(sid, now)
		if ok {
			issued++
		} else if blocked {
			ldstBlocked++
		}
	}
	if sm.tr != nil && issued < sm.cfg.Schedulers {
		// Every non-issuing scheduler counted one IssueStallCycle this
		// tick (scheduleOne); fold them into a single stall event.
		sm.tr.Emit(sm.id, trace.Event{
			Cycle: now, Kind: trace.KindStall,
			A: int64(sm.cfg.Schedulers - issued), B: int64(ldstBlocked),
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
	sm.stats.IssueStallCycles += span * int64(sm.cfg.Schedulers)
	sm.stats.LDSTStallCycles += span * int64(sm.ldstBlocked)
	if sm.tr != nil {
		sm.tr.Emit(sm.id, trace.Event{
			Cycle: now - span, Kind: trace.KindStallSpan,
			A: span, B: int64(sm.ldstBlocked),
			Sched: -1, Warp: -1,
		})
	}
}

// retire pops completed instructions in program order per warp. Retired
// tensor-core-loads schedule their LHB entry releases RetireDelay cycles
// later: with the warp-register renaming of [15], a destination register
// group stays valid well past instruction completion, until the rename pool
// reclaims it; RetireDelay is the calibrated model of that reuse window
// (§V-C governs the hit-rate ceiling through it).
func (sm *smState) retire(now int64) {
	delay := int64(sm.cfg.RetireDelay)
	for wi, word := range sm.liveMask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := wi<<6 + b
			w := &sm.warps[s]
			sm.retireWarp(w, s, now, delay)
		}
	}
}

// retireWarp pops warp s's completed ROB entries and releases its slot once
// the program has drained (the per-warp body of retire; s is always live).
func (sm *smState) retireWarp(w *warpCtx, s int, now, delay int64) {
	for !w.robEmpty() {
		e := &w.rob[w.robHead]
		if e.complete > now {
			break
		}
		if e.isTCLoad && sm.du != nil {
			sm.lhbRelease = append(sm.lhbRelease, lhbReleaseEvt{at: now + delay, seqLo: e.seqLo, seqHi: e.seqHi})
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
	i := 0
	for i < len(sm.lhbRelease) && sm.lhbRelease[i].at <= now {
		e := sm.lhbRelease[i]
		for q := e.seqLo; q < e.seqHi; q++ {
			sm.du.Retire(q)
		}
		if sm.tr != nil {
			sm.tr.Emit(sm.id, trace.Event{
				Cycle: now, Kind: trace.KindLHBRelease,
				A: int64(e.seqHi - e.seqLo), Sched: -1, Warp: -1,
			})
		}
		i++
	}
	if i > 0 {
		// Compact in place so the slice reuses its backing array instead of
		// marching through memory one re-slice at a time.
		n := copy(sm.lhbRelease, sm.lhbRelease[i:])
		sm.lhbRelease = sm.lhbRelease[:n]
	}
}

// mshrSweepLen is the MSHR table size beyond which drainLDST sweeps dead
// entries. An entry whose fill has passed is dead — accessLine treats it
// as absent — but it leaves the table only when its line is touched again,
// so without a sweep the table would accrete one entry per distinct line
// ever missed over a multi-million-cycle run. Live entries are bounded by
// the misses in flight (at most LDSTQueueDepth loads' worth of lines), far
// below this size, so a sweep frees most of the table and runs rarely.
const mshrSweepLen = 1 << 12

// drainLDST frees queue slots whose memory operations completed, and keeps
// the MSHR table bounded by sweeping entries whose fills are in the past.
// The sweep is behavior-invisible: accessLine deletes a passed entry on
// first touch anyway, and the fill <= now condition is per-entry, so the
// table's slot order cannot leak into results.
func (sm *smState) drainLDST(now int64) {
	q := sm.ldstBusy[:0]
	for _, t := range sm.ldstBusy {
		if t > now {
			q = append(q, t)
		}
	}
	sm.ldstBusy = q
	if sm.mshr.Len() > mshrSweepLen {
		sm.mshr.DeleteFunc(func(_ uint64, fill int64) bool { return fill <= now })
	}
}

// scheduleOne runs one warp scheduler for one cycle: greedy-then-oldest.
// It reports whether an instruction issued and, when it did not, whether
// the stall was (at least partly) caused by a full LDST queue.
func (sm *smState) scheduleOne(sid int, now int64) (issued, blocked bool) {
	// Candidate order: the greedy warp first, then all of this scheduler's
	// warps oldest-first.
	ldstBlocked := false
	try := func(s int) bool {
		w := &sm.warps[s]
		if !w.active || w.pc >= w.prog.Len() {
			return false
		}
		ok, blocked := sm.tryIssue(sid, w, now)
		if blocked {
			ldstBlocked = true
		}
		return ok
	}
	if g := sm.greedy[sid]; g >= 0 && try(g) {
		return true, false
	}
	// Oldest-first scan over this scheduler's live warp slots (the
	// schedLive scoreboard walks them in the same ascending-slot order as
	// the pre-bitset strided loop).
	best := -1
	var bestAge int64 = 1 << 62
	for wi, word := range sm.schedLive[sid] {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := (wi<<6+b)*sm.cfg.Schedulers + sid
			w := &sm.warps[s]
			if w.pc >= w.prog.Len() || s == sm.greedy[sid] {
				continue
			}
			if w.age < bestAge {
				// Try in age order lazily: collect the oldest issuable.
				if ok, blocked := sm.canIssue(sid, w, now); ok {
					bestAge = w.age
					best = s
				} else if blocked {
					ldstBlocked = true
				}
			}
		}
	}
	if best >= 0 {
		w := &sm.warps[best]
		sm.tryIssue(sid, w, now)
		sm.greedy[sid] = best
		return true, false
	}
	sm.greedy[sid] = -1
	sm.stats.IssueStallCycles++
	if ldstBlocked {
		sm.stats.LDSTStallCycles++
	}
	return false, ldstBlocked
}

// canIssue checks issueability without side effects.
func (sm *smState) canIssue(sid int, w *warpCtx, now int64) (ok, ldstBlocked bool) {
	w.decode()
	in := &w.cur
	switch in.Op {
	case OpLoadA, OpLoadB:
		if w.regReady[in.Dst] > now {
			return false, false
		}
		if len(sm.ldstBusy) >= sm.cfg.LDSTQueueDepth {
			return false, true
		}
	case OpMMA:
		if w.regReady[in.SrcA] > now || w.regReady[in.SrcB] > now || w.regReady[in.Dst] > now {
			return false, false
		}
		if sm.pbFree[sid] > now {
			return false, false
		}
	case OpStoreD:
		if w.regReady[in.SrcA] > now {
			return false, false
		}
		if len(sm.ldstBusy) >= sm.cfg.LDSTQueueDepth {
			return false, true
		}
	}
	return true, false
}

// tryIssue issues the warp's next instruction if possible.
func (sm *smState) tryIssue(sid int, w *warpCtx, now int64) (issued, ldstBlocked bool) {
	ok, blocked := sm.canIssue(sid, w, now)
	if !ok {
		return false, blocked
	}
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
		sm.pbFree[sid] = now + int64(sm.cfg.MMAInitiation)
		w.regReady[in.Dst] = now + int64(sm.cfg.MMALatency)
		w.robPush(robEntry{complete: now + int64(sm.cfg.MMALatency)})
	case OpStoreD:
		sm.issueStore(w, in, now)
	}
	w.advance()
	return true, false
}

// issueLoad processes a wmma.load macro-op. Following §II-B, the macro-op
// expands into 16 row-vector loads (one 16-element row of the tile each);
// each row load consults the Duplo detection unit individually (row IDs are
// what the LHB tracks), and only the rows that miss generate line requests.
func (sm *smState) issueLoad(w *warpCtx, in Instr, now int64) {
	sm.stats.TensorLoads += tileRows
	var seqLo, seqHi uint64
	tracked := false
	var complete int64
	anyMem := false
	sm.lineBuf = sm.lineBuf[:0]
	lb := uint64(sm.cfg.LineBytes)

	for r := 0; r < tileRows; r++ {
		rowAddr := in.Addr + uint64(r)*uint64(in.RowPitch)
		hit := false
		if sm.du != nil {
			res, seq := sm.du.Access(w.slot, int(in.Dst), rowAddr, 0)
			if r == 0 {
				seqLo = seq
			}
			seqHi = seq + 1
			if res.Kind != duplo.AccessBypass {
				tracked = true
			}
			if res.Kind == duplo.AccessHit {
				// Row eliminated: rename after the detection latency; the
				// consumer waits for the original load's data via the
				// scoreboard (entry meta carries its ready cycle).
				hit = true
				sm.stats.LoadsEliminated++
				t := now + int64(sm.du.Latency())
				if res.Meta > t {
					t = res.Meta
				}
				if t > complete {
					complete = t
				}
				// Parallel L1 lookup happens anyway (energy), then cancels.
				sm.stats.L1Accesses++
				sm.stats.ServiceLines[ServiceLHB]++
				if sm.tr != nil {
					sm.tr.Emit(sm.id, trace.Event{
						Cycle: now, Kind: trace.KindLHBHit, Addr: rowAddr,
						Sched: -1, Warp: int16(w.slot),
					})
				}
			}
		}
		if !hit {
			anyMem = true
			// Collect this row's line(s), deduplicated across miss rows.
			// Row addresses are monotone (RowPitch > 0) and each row's
			// lines are contiguous, so collected lines are monotone too: a
			// candidate can only duplicate the tail of what is already
			// collected, never land in a gap below it.
			first := rowAddr &^ (lb - 1)
			last := (rowAddr + uint64(in.RowBytes) - 1) &^ (lb - 1)
			for line := first; line <= last; line += lb {
				if n := len(sm.lineBuf); n > 0 && line <= sm.lineBuf[n-1] {
					continue
				}
				sm.lineBuf = append(sm.lineBuf, line)
			}
		}
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
		sm.ldstBusy = append(sm.ldstBusy, complete)
	}
	w.robPush(robEntry{complete: complete, isTCLoad: tracked, seqLo: seqLo, seqHi: seqHi})
	if tracked && anyMem {
		// Record the data-ready cycle in the rows' LHB entries so later
		// hits wait for the data (meta update after the miss resolved).
		for r := 0; r < tileRows; r++ {
			rowAddr := in.Addr + uint64(r)*uint64(in.RowPitch)
			if id, st := sm.du.Gen().IDs(rowAddr); st == duplo.StatusOK {
				sm.du.SetMeta(id, complete)
			}
		}
	}
}

// accessLine performs one read line access at cycle t (post port
// arbitration) and returns (data-ready cycle, serving level).
func (sm *smState) accessLine(line uint64, t int64) (int64, ServiceLevel) {
	sm.stats.L1Accesses++
	l1Lat := int64(sm.cfg.L1LatencyCycles)
	if fill, pending := sm.mshr.Get(line); pending {
		if fill > t {
			// Merge into the outstanding miss.
			sm.stats.MSHRMerges++
			sm.stats.L1Hits++ // serviced without new traffic
			if sm.tr != nil {
				sm.tr.Emit(sm.id, trace.Event{
					Cycle: t, Kind: trace.KindMSHRMerge, Addr: line,
					Sched: -1, Warp: -1,
				})
			}
			return fill, ServiceL1
		}
		sm.mshr.Delete(line)
	}
	if sm.l1.Lookup(line) {
		sm.stats.L1Hits++
		return t + l1Lat, ServiceL1
	}
	fill, src := sm.mem.readLine(line, t+l1Lat)
	sm.l1.Insert(line)
	sm.mshr.Set(line, fill)
	return fill, src
}

// issueStore processes a wmma.store.d: write-through line transactions.
func (sm *smState) issueStore(w *warpCtx, in Instr, now int64) {
	sm.stats.Stores++
	if sm.du != nil {
		sm.du.Store(in.Addr) // consistency hook (§IV-B); no-op outside workspace
	}
	sm.lineBuf = lineSpan(sm.lineBuf[:0], in, sm.cfg.LineBytes)
	for range sm.lineBuf {
		t := now
		if sm.l1Port > t {
			t = sm.l1Port
		}
		sm.l1Port = t + 1
		sm.stats.L1Accesses++
		sm.mem.writeLine(t)
	}
	complete := now + int64(sm.cfg.StoreLatency)
	sm.ldstBusy = append(sm.ldstBusy, complete)
	w.robPush(robEntry{complete: complete})
}

// busy reports whether any warp is resident.
func (sm *smState) busy() bool { return sm.resident > 0 }

// farFuture is the sentinel wake cycle for "no pending event".
const farFuture = int64(1) << 62

// nextWake returns a conservative lower bound (> now, or farFuture when the
// SM has nothing pending) on the next cycle at which this SM's tick could
// do anything a fully-stalled tick would not: issue an instruction, retire
// a ROB entry, release an LHB entry, or drain an LDST queue slot. The SM
// sleeps until then (gpuState.runLoops). Only the SM's own ticks change
// these events — other SMs reach it through memSystem and the CTA
// dispatcher, which it touches only when it ticks — so the bound holds
// however the rest of the chip runs. runLoops calls it only after a
// tick(now) in which this SM issued nothing, so every active warp is gated
// on one of the events below; the wake set is
//
//   - the earliest ldstBusy drain (opens LDST queue back-pressure),
//   - the head lhbRelease.at (LHB entry releases run at exact cycles),
//   - the L1 tag port's free cycle,
//   - per active warp: the head ROB entry's complete cycle (in-order
//     retire, so the head always pops first), and the gate of its current
//     instruction — the blocking regReady cycles, or the processing-block
//     free cycle once an MMA's operands are all ready.
//
// Any stale event (<= now) clamps to now+1 — the clock may refuse to skip,
// but can never be sent backwards or past a wake (the deadlock guard,
// asserted by TestNextWakeNeverInPast).
func (sm *smState) nextWake(now int64) int64 {
	wake := farFuture
	add := func(t int64) {
		if t <= now {
			t = now + 1
		}
		if t < wake {
			wake = t
		}
	}
	minLdst := farFuture
	for _, t := range sm.ldstBusy {
		if t < minLdst {
			minLdst = t
		}
	}
	if minLdst < farFuture {
		add(minLdst)
	}
	if len(sm.lhbRelease) > 0 {
		add(sm.lhbRelease[0].at) // FIFO with monotone times: head is earliest
	}
	if sm.l1Port > now {
		add(sm.l1Port)
	}
	for wi, word := range sm.liveMask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := wi<<6 + b
			w := &sm.warps[s]
			if !w.robEmpty() {
				add(w.rob[w.robHead].complete)
			}
			if w.pc >= w.prog.Len() {
				continue
			}
			w.decode()
			in := &w.cur
			switch in.Op {
			case OpLoadA, OpLoadB, OpStoreD:
				reg := in.Dst
				if in.Op == OpStoreD {
					reg = in.SrcA
				}
				if t := w.regReady[reg]; t > now {
					add(t)
				} else if len(sm.ldstBusy) == 0 {
					// A ready memory op can only be gated by a full LDST
					// queue; an empty queue here is inconsistent — wake
					// immediately instead of risking a missed event.
					add(now + 1)
				}
			case OpMMA:
				gated := false
				for _, rg := range [...]uint8{in.SrcA, in.SrcB, in.Dst} {
					if t := w.regReady[rg]; t > now {
						add(t)
						gated = true
					}
				}
				if !gated {
					// Operands ready: the gate is the processing block.
					add(sm.pbFree[s%sm.cfg.Schedulers])
				}
			}
		}
	}
	return wake
}
