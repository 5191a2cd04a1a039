// Package flat provides Table, the open-addressed uint64-keyed hash table
// behind the simulator's lookups by address: the oracle LHB's tag store
// (internal/core), which the cycle loop consults on every row load, and
// the L1 MSHR table (internal/sim), which holds only the lines the L1
// evicted before their fill landed and is asked on L1 misses. Each maps a
// 64-bit key to one small integer; a flat slot array probes in place where
// a Go map hashes through its runtime.
package flat

import "math/bits"

// Table maps uint64 keys to int64 values with the semantics of a Go
// map[uint64]int64 minus iteration order, which no caller relies on. It
// uses linear probing with backward-shift deletion, so there are no
// tombstones and a lookup never walks past an empty slot. Storage grows by
// doubling, keeping at most half the slots full; nothing else allocates.
// The zero value is an empty table.
//
// A Table is not safe for concurrent use.
type Table struct {
	slots []slot
	n     int
	shift uint // 64 - log2(len(slots)): home() keeps the product's top bits
}

type slot struct {
	key  uint64
	val  int64
	used bool
}

const minSlots = 16

// home is the slot a key's probe run starts at (Fibonacci hashing: the
// keys are strided addresses and sequence numbers, whose low bits alone
// would cluster).
func (t *Table) home(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> t.shift)
}

// lookup returns the slot holding k, or the empty slot that ends k's probe
// run, and whether k was found. The table must have storage.
func (t *Table) lookup(k uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		if s := &t.slots[i]; !s.used || s.key == k {
			return i, s.used
		}
	}
}

// Get returns k's value and whether k is present (0, false when absent).
func (t *Table) Get(k uint64) (int64, bool) {
	if t.n == 0 {
		return 0, false
	}
	i, ok := t.lookup(k)
	return t.slots[i].val, ok
}

// Set maps k to v.
func (t *Table) Set(k uint64, v int64) {
	if len(t.slots) == 0 {
		t.resize(minSlots)
	}
	i, ok := t.lookup(k)
	if !ok {
		if 2*(t.n+1) > len(t.slots) {
			t.resize(2 * len(t.slots))
			i, _ = t.lookup(k)
		}
		t.slots[i].key, t.slots[i].used = k, true
		t.n++
	}
	t.slots[i].val = v
}

// Delete removes k, if present.
func (t *Table) Delete(k uint64) {
	if t.n == 0 {
		return
	}
	if i, ok := t.lookup(k); ok {
		t.removeAt(i)
	}
}

// DeleteFunc removes every entry for which del returns true, like
// maps.DeleteFunc.
func (t *Table) DeleteFunc(del func(k uint64, v int64) bool) {
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; s.used && del(s.key, s.val) {
			// removeAt may shift a later entry into slot i: look again. An
			// entry that lands in a slot already passed (the probe run
			// wrapped) came from a passed slot, so it was already kept; one
			// moved from there to slot i or beyond is just asked twice.
			t.removeAt(i)
			continue
		}
		i++
	}
}

// Range calls f on every entry, in slot order.
func (t *Table) Range(f func(k uint64, v int64)) {
	for _, s := range t.slots {
		if s.used {
			f(s.key, s.val)
		}
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// removeAt empties the used slot i, then shifts later members of its probe
// run back into the hole, so every remaining key is still reachable from
// its home without crossing an empty slot.
func (t *Table) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole only if the hole lies between
		// its home and j (cyclically); otherwise it would land before its
		// home and no lookup would reach it.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

// resize rehashes every entry into n slots (n a power of two).
func (t *Table) resize(n int) {
	old := t.slots
	t.slots = make([]slot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.used {
			i, _ := t.lookup(s.key)
			t.slots[i] = s
		}
	}
}
