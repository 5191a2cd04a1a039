package duplo

import (
	"math/rand"
	"testing"
)

func mustLHB(t *testing.T, cfg LHBConfig) *LHB {
	t.Helper()
	l, err := NewLHB(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLHBConfigValidate(t *testing.T) {
	good := []LHBConfig{
		{Entries: 1024, Ways: 1},
		{Entries: 1024, Ways: 8},
		{Entries: 256, Ways: 2},
		{Oracle: true},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	bad := []LHBConfig{
		{Entries: 0, Ways: 1},
		{Entries: 1000, Ways: 1}, // not pow2
		{Entries: 1024, Ways: 0},
		{Entries: 1024, Ways: 3}, // does not divide into pow2 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: expected error", c)
		}
	}
}

func TestLHBMissAllocHit(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 16, Ways: 1})
	id := ID{Elem: 5}
	if _, _, hit := l.Lookup(id, 1); hit {
		t.Fatal("compulsory miss expected")
	}
	l.Insert(id, 7, 1, 0)
	reg, _, hit := l.Lookup(id, 2)
	if !hit || reg != 7 {
		t.Fatalf("hit=(%v,%d), want (true,7)", hit, reg)
	}
	if l.Stats.Hits != 1 || l.Stats.Misses != 1 || l.Stats.Allocs != 1 {
		t.Fatalf("stats %+v", l.Stats)
	}
	if l.Stats.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", l.Stats.HitRate())
	}
}

func TestLHBRetireEviction(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 16, Ways: 1})
	id := ID{Elem: 3}
	l.Insert(id, 1, 10, 0)
	l.Retire(id, 10)
	if _, _, hit := l.Lookup(id, 11); hit {
		t.Fatal("entry must be released when its owner retires (§IV-B)")
	}
	if l.Stats.Releases != 1 {
		t.Fatalf("releases %d", l.Stats.Releases)
	}
}

// The relay: a hit extends the entry's lifetime to the hitting instruction,
// so retiring the original owner no longer evicts it (§IV-B "continuous
// hits ... can relay the warp register to the next tensor-core-load").
func TestLHBRelayExtension(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 16, Ways: 1})
	id := ID{Elem: 3}
	l.Insert(id, 1, 10, 0)
	if _, _, hit := l.Lookup(id, 20); !hit {
		t.Fatal("expected hit")
	}
	l.Retire(id, 10) // original owner retires; entry relayed to 20
	if _, _, hit := l.Lookup(id, 30); !hit {
		t.Fatal("relayed entry must survive the original owner's retirement")
	}
	l.Retire(id, 20)
	l.Retire(id, 30)
	if _, _, hit := l.Lookup(id, 40); hit {
		t.Fatal("entry must die when the last relayed user retires")
	}
}

func TestLHBConflictReplacement(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 4, Ways: 1, ModuloIndex: true})
	a := ID{Elem: 2}
	b := ID{Elem: 6} // 6 % 4 == 2: same set (the Table II conflict)
	l.Insert(a, 1, 1, 0)
	l.Insert(b, 2, 2, 0)
	if l.Stats.Replacements != 1 {
		t.Fatalf("replacements %d", l.Stats.Replacements)
	}
	if _, _, hit := l.Lookup(a, 3); hit {
		t.Fatal("replaced entry must miss")
	}
	if reg, _, hit := l.Lookup(b, 4); !hit || reg != 2 {
		t.Fatal("replacement must hit")
	}
}

// Set associativity removes the conflict of the direct-mapped case.
func TestLHBSetAssociative(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 8, Ways: 2, ModuloIndex: true})
	a := ID{Elem: 2}
	b := ID{Elem: 6} // same set of 4, different ways
	l.Insert(a, 1, 1, 0)
	l.Insert(b, 2, 2, 0)
	if l.Stats.Replacements != 0 {
		t.Fatal("2-way buffer should absorb the conflict")
	}
	if _, _, hit := l.Lookup(a, 3); !hit {
		t.Fatal("a should still hit")
	}
	if _, _, hit := l.Lookup(b, 4); !hit {
		t.Fatal("b should still hit")
	}
	// A third conflicting ID evicts the LRU way (a: touched at seq 3, b at 4
	// -> LRU is a).
	c := ID{Elem: 10}
	l.Insert(c, 3, 5, 0)
	if _, _, hit := l.Lookup(a, 6); hit {
		t.Fatal("LRU way (a) should have been evicted")
	}
	if _, _, hit := l.Lookup(b, 7); !hit {
		t.Fatal("MRU way (b) should survive")
	}
}

func TestLHBTagDistinguishesBatchAndHighBits(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 4, Ways: 1, ModuloIndex: true})
	a := ID{Elem: 1, Batch: 0}
	b := ID{Elem: 1, Batch: 1} // same element, different image: distinct data
	l.Insert(a, 1, 1, 0)
	if _, _, hit := l.Lookup(b, 2); hit {
		t.Fatal("different batch must not hit (§III-C)")
	}
	c := ID{Elem: 1 + 4} // same set, different tag bits
	if _, _, hit := l.Lookup(c, 3); hit {
		t.Fatal("different element high bits must not hit")
	}
}

// The default (hashed) index must spread power-of-two-strided IDs that
// modulo indexing collapses onto one set.
func TestLHBHashedIndexSpreadsStrides(t *testing.T) {
	hashed := mustLHB(t, LHBConfig{Entries: 64, Ways: 1})
	modulo := mustLHB(t, LHBConfig{Entries: 64, Ways: 1, ModuloIndex: true})
	// 16 IDs with stride 64 (a tile's rows for a C=64 layer): modulo maps
	// them all to set 0.
	for i := uint32(0); i < 16; i++ {
		id := ID{Elem: i * 64}
		hashed.Insert(id, PhysReg(i), uint64(i), 0)
		modulo.Insert(id, PhysReg(i), uint64(i), 0)
	}
	if modulo.Stats.Replacements != 15 {
		t.Fatalf("modulo replacements %d, want 15 (all collide)", modulo.Stats.Replacements)
	}
	if hashed.Stats.Replacements != 0 {
		t.Fatalf("hashed replacements %d, want 0", hashed.Stats.Replacements)
	}
}

func TestLHBStoreInvalidate(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 16, Ways: 1})
	id := ID{Elem: 9}
	l.Insert(id, 1, 1, 0)
	l.StoreInvalidate(id)
	if _, _, hit := l.Lookup(id, 2); hit {
		t.Fatal("store must invalidate the matching entry")
	}
	if l.Stats.StoreEvicts != 1 {
		t.Fatalf("store evicts %d", l.Stats.StoreEvicts)
	}
}

func TestLHBOracle(t *testing.T) {
	l := mustLHB(t, LHBConfig{Oracle: true})
	// No conflicts ever: thousands of distinct IDs coexist.
	for i := uint32(0); i < 5000; i++ {
		l.Insert(ID{Elem: i}, PhysReg(i), uint64(i), 0)
	}
	for i := uint32(0); i < 5000; i++ {
		reg, _, hit := l.Lookup(ID{Elem: i}, uint64(10000+i))
		if !hit || reg != PhysReg(i) {
			t.Fatalf("oracle lost entry %d", i)
		}
	}
	if l.Live() != 5000 {
		t.Fatalf("live %d", l.Live())
	}
	// Retire-based eviction still applies in oracle mode (§V-C: the oracle
	// saturates near 76%, not the 88.9% theoretical limit).
	for i := uint32(0); i < 5000; i++ {
		l.Retire(ID{Elem: i}, uint64(10000+i))
	}
	if l.Live() != 0 {
		t.Fatalf("live after retire %d", l.Live())
	}
}

func TestLHBNeverEvict(t *testing.T) {
	l := mustLHB(t, LHBConfig{Oracle: true, NeverEvict: true})
	l.Insert(ID{Elem: 1}, 1, 1, 0)
	l.Retire(ID{Elem: 1}, 1)
	if _, _, hit := l.Lookup(ID{Elem: 1}, 2); !hit {
		t.Fatal("NeverEvict must survive retirement")
	}
}

func TestLHBOracleStoreInvalidate(t *testing.T) {
	l := mustLHB(t, LHBConfig{Oracle: true})
	l.Insert(ID{Elem: 4}, 2, 1, 0)
	l.StoreInvalidate(ID{Elem: 4})
	if _, _, hit := l.Lookup(ID{Elem: 4}, 2); hit {
		t.Fatal("oracle store invalidate failed")
	}
}

func TestLHBReinsertSameID(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 4, Ways: 1})
	id := ID{Elem: 2}
	l.Insert(id, 1, 1, 0)
	l.Insert(id, 2, 2, 0) // re-allocation replaces in place
	reg, _, hit := l.Lookup(id, 3)
	if !hit || reg != 2 {
		t.Fatalf("latest insert must win: (%v,%d)", hit, reg)
	}
	// Retiring the first owner must not kill the second insert.
	l.Retire(id, 1)
	if _, _, hit := l.Lookup(id, 4); !hit {
		t.Fatal("stale retire must not evict the new entry")
	}
}

func TestLHBLiveCount(t *testing.T) {
	l := mustLHB(t, LHBConfig{Entries: 8, Ways: 1})
	if l.Live() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	l.Insert(ID{Elem: 1}, 1, 1, 0)
	l.Insert(ID{Elem: 2}, 2, 2, 0)
	if l.Live() != 2 {
		t.Fatalf("live %d", l.Live())
	}
}

// refLHB is the brute-force model TestLHBMatchesReference checks the LHB
// against: per-set recency lists (least recently used first) or one map in
// oracle mode, and a release that walks every live entry for the retiring
// sequence number.
type refLHB struct {
	cfg    LHBConfig
	sets   [][]refEntry
	oracle map[ID]refEntry
	stats  LHBStats
}

type refEntry struct {
	id   ID
	reg  PhysReg
	meta int64
	user uint64
}

func newRefLHB(cfg LHBConfig) *refLHB {
	m := &refLHB{cfg: cfg, oracle: map[ID]refEntry{}}
	if !cfg.Oracle {
		m.sets = make([][]refEntry, cfg.Entries/cfg.Ways)
	}
	return m
}

// find returns the set holding id's entry and its position in it (-1 when
// absent); set is nil in oracle mode.
func (m *refLHB) find(l *LHB, id ID) (set *[]refEntry, pos int) {
	if m.cfg.Oracle {
		return nil, -1
	}
	set = &m.sets[l.index(id)]
	for i, e := range *set {
		if e.id == id {
			return set, i
		}
	}
	return set, -1
}

func (m *refLHB) lookup(l *LHB, id ID, seq uint64) (PhysReg, int64, bool) {
	m.stats.Lookups++
	if m.cfg.Oracle {
		e, ok := m.oracle[id]
		if !ok {
			m.stats.Misses++
			return InvalidReg, 0, false
		}
		m.stats.Hits++
		m.stats.Relays++
		e.user = seq
		m.oracle[id] = e
		return e.reg, e.meta, true
	}
	set, i := m.find(l, id)
	if i < 0 {
		m.stats.Misses++
		return InvalidReg, 0, false
	}
	m.stats.Hits++
	m.stats.Relays++
	e := (*set)[i]
	e.user = seq
	*set = append(append((*set)[:i:i], (*set)[i+1:]...), e) // now most recent
	return e.reg, e.meta, true
}

func (m *refLHB) insert(l *LHB, id ID, reg PhysReg, seq uint64, meta int64) {
	m.stats.Allocs++
	e := refEntry{id: id, reg: reg, meta: meta, user: seq}
	if m.cfg.Oracle {
		m.oracle[id] = e
		return
	}
	set, _ := m.find(l, id)
	if len(*set) == m.cfg.Ways {
		m.stats.Replacements++
		*set = (*set)[1:]
	}
	*set = append(*set, e)
}

func (m *refLHB) setMeta(l *LHB, id ID, meta int64) {
	if m.cfg.Oracle {
		if e, ok := m.oracle[id]; ok {
			e.meta = meta
			m.oracle[id] = e
		}
		return
	}
	if set, i := m.find(l, id); i >= 0 {
		(*set)[i].meta = meta
	}
}

// retire releases every live entry whose last user is seq.
func (m *refLHB) retire(seq uint64) {
	if m.cfg.NeverEvict {
		return
	}
	for id, e := range m.oracle {
		if e.user == seq {
			delete(m.oracle, id)
			m.stats.Releases++
		}
	}
	for s, set := range m.sets {
		kept := set[:0]
		for _, e := range set {
			if e.user == seq {
				m.stats.Releases++
			} else {
				kept = append(kept, e)
			}
		}
		m.sets[s] = kept
	}
}

func (m *refLHB) storeInvalidate(l *LHB, id ID) {
	if m.cfg.Oracle {
		if _, ok := m.oracle[id]; ok {
			delete(m.oracle, id)
			m.stats.StoreEvicts++
		}
		return
	}
	if set, i := m.find(l, id); i >= 0 {
		*set = append((*set)[:i:i], (*set)[i+1:]...)
		m.stats.StoreEvicts++
	}
}

func (m *refLHB) live() int {
	n := len(m.oracle)
	for _, set := range m.sets {
		n += len(set)
	}
	return n
}

// TestLHBMatchesReference drives the LHB and refLHB through the same random
// detection-unit traffic — every access takes a fresh sequence number, looks
// its ID up and inserts it on a miss — with sequence numbers retired out of
// order, metadata updates and store invalidates mixed in. It requires the
// same hit, register and metadata on every lookup, and the same Live() and
// LHBStats after every step, in every geometry the simulator configures.
func TestLHBMatchesReference(t *testing.T) {
	configs := map[string]LHBConfig{
		"direct":             {Entries: 16, Ways: 1},
		"2way":               {Entries: 16, Ways: 2},
		"4way":               {Entries: 16, Ways: 4},
		"modulo":             {Entries: 16, Ways: 2, ModuloIndex: true},
		"never-evict":        {Entries: 16, Ways: 2, NeverEvict: true},
		"oracle":             {Oracle: true},
		"oracle-never-evict": {Oracle: true, NeverEvict: true},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			l := mustLHB(t, cfg)
			m := newRefLHB(cfg)
			var seq uint64
			var reg PhysReg
			type access struct {
				id  ID
				seq uint64
			}
			var pending []access // accessed, not yet retired
			randID := func() ID { return ID{Elem: uint32(r.Intn(48)) * 4, Batch: uint32(r.Intn(2))} }
			for step := 0; step < 20000; step++ {
				switch op := r.Intn(100); {
				case op < 45:
					id := randID()
					gr, gm, gh := l.Lookup(id, seq)
					wr, wm, wh := m.lookup(l, id, seq)
					if gr != wr || gm != wm || gh != wh {
						t.Fatalf("step %d: Lookup(%+v) = %d, %d, %v; want %d, %d, %v", step, id, gr, gm, gh, wr, wm, wh)
					}
					if !gh {
						meta := r.Int63n(1000)
						l.Insert(id, reg, seq, meta)
						m.insert(l, id, reg, seq, meta)
						reg++
					}
					pending = append(pending, access{id, seq})
					seq++
				case op < 90:
					if len(pending) == 0 {
						continue
					}
					i := r.Intn(len(pending))
					a := pending[i]
					pending[i] = pending[len(pending)-1]
					pending = pending[:len(pending)-1]
					l.Retire(a.id, a.seq)
					m.retire(a.seq)
				case op < 96:
					id, meta := randID(), r.Int63n(1000)
					l.SetMeta(id, meta)
					m.setMeta(l, id, meta)
				default:
					id := randID()
					l.StoreInvalidate(id)
					m.storeInvalidate(l, id)
				}
				if got, want := l.Live(), m.live(); got != want {
					t.Fatalf("step %d: Live %d, want %d", step, got, want)
				}
				if l.Stats != m.stats {
					t.Fatalf("step %d: stats\n got %+v\nwant %+v", step, l.Stats, m.stats)
				}
			}
		})
	}
}
