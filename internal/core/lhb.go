package duplo

import (
	"fmt"
	"math/bits"

	"duplo/internal/flat"
)

// PhysReg identifies a physical warp-register group holding one loaded
// 16x16 tile (renaming is warp-granular, §IV-B).
type PhysReg uint32

// InvalidReg is returned on LHB misses.
const InvalidReg PhysReg = ^PhysReg(0)

// LHBConfig sizes the load history buffer.
type LHBConfig struct {
	// Entries is the total entry count (power of two). Ignored when Oracle.
	Entries int
	// Ways is the set associativity; 1 = direct-mapped (the paper's default
	// and recommendation, §V-E).
	Ways int
	// Oracle removes capacity and conflict misses (the "oracle" series of
	// Fig. 9/10). Retire-based eviction still applies unless NeverEvict.
	Oracle bool
	// NeverEvict disables retire-based eviction (ablation: approaches the
	// theoretical 88.9% hit-rate limit of §V-C, but is unimplementable in
	// hardware because register liveness would be unbounded).
	NeverEvict bool
	// ModuloIndex selects plain low-bit indexing instead of the default
	// XOR-fold hash (§IV-B says the low element-ID bits are "hashed"; the
	// Table II example implies plain modulo). Modulo is pathological for
	// layers whose C*Stride is a power of two — kept as an ablation.
	ModuloIndex bool
}

// DefaultLHBConfig is the paper's chosen design point: 1024-entry,
// direct-mapped (§V-B).
func DefaultLHBConfig() LHBConfig { return LHBConfig{Entries: 1024, Ways: 1} }

// Validate reports configuration errors.
func (c LHBConfig) Validate() error {
	if c.Oracle {
		return nil
	}
	switch {
	case c.Entries <= 0 || c.Entries&(c.Entries-1) != 0:
		return fmt.Errorf("duplo: LHB entries %d not a positive power of two", c.Entries)
	case c.Ways <= 0 || c.Entries%c.Ways != 0:
		return fmt.Errorf("duplo: LHB ways %d does not divide entries %d", c.Ways, c.Entries)
	case (c.Entries/c.Ways)&(c.Entries/c.Ways-1) != 0:
		return fmt.Errorf("duplo: LHB set count %d not a power of two", c.Entries/c.Ways)
	}
	return nil
}

// LHBStats counts LHB events.
type LHBStats struct {
	Lookups      uint64 // tensor-core-loads that consulted the LHB
	Hits         uint64
	Misses       uint64
	Allocs       uint64
	Replacements uint64 // allocations that evicted a live entry (conflict)
	Releases     uint64 // retire-based evictions
	StoreEvicts  uint64
	Relays       uint64 // hits that extended an entry's lifetime
}

// HitRate returns Hits / Lookups.
func (s LHBStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// noEntry terminates the intrusive per-instruction user chains.
const noEntry = int32(-1)

type lhbEntry struct {
	valid bool
	tag   uint64 // elementID upper bits ++ batchID ++ PID (§IV-B)
	reg   PhysReg
	meta  int64 // simulator metadata (data-ready cycle of reg)
	// lastUser is the sequence number of the most recent tensor-core-load
	// served by this entry (the allocator or a relaying hit). The entry is
	// released when that instruction retires (§IV-B / §V-C).
	lastUser uint64
	lru      uint64 // generation counter for set-associative replacement
	// nextUser links the entries owned by the same lastUser into an
	// intrusive singly-linked chain (head in LHB.userHead). Chains replace
	// the per-sequence []int slices the release index used to allocate on
	// every tracked access — the release relation is exactly the inverse of
	// lastUser, so it lives inside the slab for free. Chains are short (at
	// most the rows of one macro-op), so unlink's linear walk is cheap.
	nextUser int32
}

// LHB is the load history buffer (Fig. 8): a small SRAM indexed by the low
// bits of the element ID, tagged with the remaining ID bits, holding the
// physical register that contains each recently loaded unique datum.
//
// Storage is a single entry slab in both modes. The set-associative mode
// (hardware design point) uses a fixed sets*ways slab; oracle mode grows the
// slab on demand and recycles slots through a free list, with a key->slot
// table standing in for the tag match. Retire-based release walks the
// intrusive lastUser chain — no per-access heap allocation on any path.
type LHB struct {
	cfg      LHBConfig
	sets     int
	idxMask  uint32
	idxBits  uint
	pid      uint32
	entries  []lhbEntry // set-assoc: sets*ways fixed; oracle: grown slab
	oracle   flat.Table // oracle mode: key -> slab slot
	oFree    []int32    // oracle mode: recycled slab slots
	userHead flat.Table // instrSeq -> head of its user chain
	clock    uint64
	Stats    LHBStats
}

// NewLHB builds a buffer for the given configuration; PID is the process ID
// mixed into tags (§IV-B).
func NewLHB(cfg LHBConfig, pid uint32) (*LHB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &LHB{cfg: cfg, pid: pid}
	if cfg.Oracle {
		return l, nil
	}
	l.sets = cfg.Entries / cfg.Ways
	l.idxBits = uint(bits.TrailingZeros(uint(l.sets)))
	l.idxMask = uint32(l.sets - 1)
	l.entries = make([]lhbEntry, cfg.Entries)
	return l, nil
}

// Reset returns the buffer to its just-built state — counters zeroed, every
// entry invalid, the user chains and oracle storage empty — reusing all
// backing storage. The arena/pool reuse protocol (sim.Arena) depends on a
// reset buffer behaving byte-identically to a fresh NewLHB.
func (l *LHB) Reset() {
	l.Stats = LHBStats{}
	l.clock = 0
	l.userHead.Reset()
	if l.cfg.Oracle {
		l.entries = l.entries[:0]
		l.oFree = l.oFree[:0]
		l.oracle.Reset()
		return
	}
	for i := range l.entries {
		l.entries[i] = lhbEntry{}
	}
}

// key packs the full identity (element ID, batch ID, PID) for oracle mode
// and tag comparison.
func (l *LHB) key(id ID) uint64 {
	return uint64(id.Elem) | uint64(id.Batch)<<32 | uint64(l.pid)<<42
}

// index hashes the element ID into a set index (§IV-B: the low element-ID
// bits are "hashed for indexing" the buffer). A plain modulo would be
// pathological here: element IDs of spatially adjacent workspace rows differ
// by C*Stride — a power of two for most layers — so untouched low bits
// would collapse a tile's 16 rows onto a couple of sets. XOR-folding the
// full ID spreads them; this is two levels of 10-bit XOR in hardware.
func (l *LHB) index(id ID) int {
	e := id.Elem
	if l.cfg.ModuloIndex {
		return int(e & l.idxMask)
	}
	h := e ^ e>>l.idxBits ^ e>>(2*l.idxBits)
	return int(h & l.idxMask)
}

// tag stores the full identity (element ID, batch ID, PID). With hashed
// indexing the index bits are not removable from the tag; the hardware cost
// is idxBits extra tag bits versus the paper's 22+10 split, accounted in
// the area model.
func (l *LHB) tag(id ID) uint64 {
	return uint64(id.Elem) | uint64(id.Batch)<<32 | uint64(l.pid)<<42
}

// pushUser prepends slab slot i to instrSeq's user chain.
func (l *LHB) pushUser(instrSeq uint64, i int32) {
	if head, ok := l.userHead.Get(instrSeq); ok {
		l.entries[i].nextUser = int32(head)
	} else {
		l.entries[i].nextUser = noEntry
	}
	l.userHead.Set(instrSeq, int64(i))
}

// unlinkUser removes slab slot i from its lastUser chain. Chains hold the
// few rows of one instruction, so the predecessor walk is short.
func (l *LHB) unlinkUser(i int32) {
	e := &l.entries[i]
	h, _ := l.userHead.Get(e.lastUser)
	head := int32(h)
	if head == i {
		if e.nextUser == noEntry {
			l.userHead.Delete(e.lastUser)
		} else {
			l.userHead.Set(e.lastUser, int64(e.nextUser))
		}
		return
	}
	p := head
	for l.entries[p].nextUser != i {
		p = l.entries[p].nextUser
	}
	l.entries[p].nextUser = e.nextUser
}

// moveUser re-homes slab slot i from its previous lastUser chain to
// instrSeq (the relay of §IV-B).
func (l *LHB) moveUser(i int32, instrSeq uint64) {
	e := &l.entries[i]
	if e.lastUser == instrSeq {
		return
	}
	l.unlinkUser(i)
	e.lastUser = instrSeq
	l.pushUser(instrSeq, i)
}

// Lookup consults the buffer for id on behalf of the tensor-core-load with
// sequence number instrSeq. On a hit it returns the physical register
// already holding the datum and extends the entry's lifetime to instrSeq
// (the relay of §IV-B). On a miss it returns (InvalidReg, false).
func (l *LHB) Lookup(id ID, instrSeq uint64) (PhysReg, int64, bool) {
	l.Stats.Lookups++
	l.clock++
	if l.cfg.Oracle {
		slot, ok := l.oracle.Get(l.key(id))
		if !ok {
			l.Stats.Misses++
			return InvalidReg, 0, false
		}
		i := int32(slot)
		l.Stats.Hits++
		l.Stats.Relays++
		l.moveUser(i, instrSeq)
		e := &l.entries[i]
		return e.reg, e.meta, true
	}
	set := l.index(id)
	t := l.tag(id)
	for w := 0; w < l.cfg.Ways; w++ {
		i := int32(set*l.cfg.Ways + w)
		e := &l.entries[i]
		if e.valid && e.tag == t {
			l.Stats.Hits++
			l.Stats.Relays++
			l.moveUser(i, instrSeq)
			e.lru = l.clock
			return e.reg, e.meta, true
		}
	}
	l.Stats.Misses++
	return InvalidReg, 0, false
}

// Insert allocates an entry mapping id to reg, owned by instrSeq, carrying
// meta (the simulator stores the register's data-ready cycle there, the
// scoreboard information a renamed consumer waits on). On a set conflict the
// LRU way is replaced (§IV-C entry replacement).
func (l *LHB) Insert(id ID, reg PhysReg, instrSeq uint64, meta int64) {
	l.Stats.Allocs++
	l.clock++
	if l.cfg.Oracle {
		k := l.key(id)
		var i int32
		if old, ok := l.oracle.Get(k); ok {
			i = int32(old)
			l.unlinkUser(i)
		} else if n := len(l.oFree); n > 0 {
			i = l.oFree[n-1]
			l.oFree = l.oFree[:n-1]
		} else {
			l.entries = append(l.entries, lhbEntry{})
			i = int32(len(l.entries) - 1)
		}
		l.entries[i] = lhbEntry{valid: true, tag: k, reg: reg, meta: meta, lastUser: instrSeq}
		l.oracle.Set(k, int64(i))
		l.pushUser(instrSeq, i)
		return
	}
	set := l.index(id)
	t := l.tag(id)
	victim := int32(-1)
	var oldest uint64 = ^uint64(0)
	for w := 0; w < l.cfg.Ways; w++ {
		i := int32(set*l.cfg.Ways + w)
		e := &l.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lru < oldest {
			oldest = e.lru
			victim = i
		}
	}
	e := &l.entries[victim]
	if e.valid {
		l.Stats.Replacements++
		l.unlinkUser(victim)
	}
	*e = lhbEntry{valid: true, tag: t, reg: reg, meta: meta, lastUser: instrSeq, lru: l.clock}
	l.pushUser(instrSeq, victim)
}

// Retire signals that the tensor-core-load with sequence number instrSeq has
// retired. Entries whose lastUser is that instruction are released, because
// the destination register may now be overwritten (§IV-B). NeverEvict
// configurations skip the release (ablation only).
func (l *LHB) Retire(instrSeq uint64) {
	if l.cfg.NeverEvict {
		return
	}
	head, ok := l.userHead.Get(instrSeq)
	if !ok {
		return
	}
	// Every chain member has lastUser == instrSeq by the unlink discipline
	// (Insert/Lookup/StoreInvalidate re-home or unlink entries eagerly).
	for i := int32(head); i != noEntry; {
		e := &l.entries[i]
		next := e.nextUser
		e.valid = false
		if l.cfg.Oracle {
			l.oracle.Delete(e.tag)
			l.oFree = append(l.oFree, i)
		}
		l.Stats.Releases++
		i = next
	}
	l.userHead.Delete(instrSeq)
}

// StoreInvalidate releases the entry matching id, if any — the consistency
// hook for stores into the workspace (§IV-B; "such a case was never
// observed in our experiments", and the simulator asserts the same).
func (l *LHB) StoreInvalidate(id ID) {
	if l.cfg.Oracle {
		k := l.key(id)
		if slot, ok := l.oracle.Get(k); ok {
			i := int32(slot)
			l.unlinkUser(i)
			l.oracle.Delete(k)
			l.entries[i].valid = false
			l.oFree = append(l.oFree, i)
			l.Stats.StoreEvicts++
		}
		return
	}
	set := l.index(id)
	t := l.tag(id)
	for w := 0; w < l.cfg.Ways; w++ {
		i := int32(set*l.cfg.Ways + w)
		e := &l.entries[i]
		if e.valid && e.tag == t {
			l.unlinkUser(i)
			e.valid = false
			l.Stats.StoreEvicts++
		}
	}
}

// Live returns the number of valid entries (oracle: tag-store size).
func (l *LHB) Live() int {
	if l.cfg.Oracle {
		return l.oracle.Len()
	}
	n := 0
	for i := range l.entries {
		if l.entries[i].valid {
			n++
		}
	}
	return n
}

// Config returns the buffer's configuration.
func (l *LHB) Config() LHBConfig { return l.cfg }

// SetMeta updates the metadata of the live entry mapping id, if present.
func (l *LHB) SetMeta(id ID, meta int64) {
	if l.cfg.Oracle {
		if i, ok := l.oracle.Get(l.key(id)); ok {
			l.entries[i].meta = meta
		}
		return
	}
	set := l.index(id)
	t := l.tag(id)
	for w := 0; w < l.cfg.Ways; w++ {
		e := &l.entries[set*l.cfg.Ways+w]
		if e.valid && e.tag == t {
			e.meta = meta
		}
	}
}
