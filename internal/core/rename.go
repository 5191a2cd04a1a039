package duplo

import (
	"fmt"

	"duplo/internal/flat"
)

// RenameTable implements warp-granular register renaming, adopted from the
// WIR scheme of Kim et al. [15] (§IV-B, Fig. 7). Each (warp, architectural
// destination register) of a tensor-core-load maps to a physical register
// group; when the LHB reports a duplicate, the destination is simply pointed
// at the physical register that already holds the tile, and no memory
// request is issued.
//
// The simulator tracks tile-granular groups ("one wmma.load destination" =
// eight 32-bit registers per thread, §IV-C) as single PhysReg handles.
type RenameTable struct {
	warps    int
	archRegs int
	table    []PhysReg // warps x archRegs
	next     PhysReg
	// refs counts how many (warp, arch) slots point at each physical
	// register group, to measure sharing (register-file savings).
	refs flat.Table

	Renames uint64 // duplicate-induced renames (LHB hits)
	Allocs  uint64 // fresh allocations (LHB misses / non-workspace loads)
}

// NewRenameTable creates a table for the given warp count and architectural
// register-group count per warp.
func NewRenameTable(warps, archRegs int) *RenameTable {
	if warps <= 0 || archRegs <= 0 {
		panic(fmt.Sprintf("duplo: invalid rename table %dx%d", warps, archRegs))
	}
	t := &RenameTable{
		warps:    warps,
		archRegs: archRegs,
		table:    make([]PhysReg, warps*archRegs),
	}
	for i := range t.table {
		t.table[i] = InvalidReg
	}
	return t
}

func (t *RenameTable) slot(warp, arch int) int {
	if warp < 0 || warp >= t.warps || arch < 0 || arch >= t.archRegs {
		panic(fmt.Sprintf("duplo: rename slot (%d,%d) out of range", warp, arch))
	}
	return warp*t.archRegs + arch
}

// Alloc assigns a fresh physical register group to (warp, arch) — the miss
// path, where the load actually fetches data.
func (t *RenameTable) Alloc(warp, arch int) PhysReg {
	s := t.slot(warp, arch)
	t.release(t.table[s])
	r := t.next
	t.next++
	t.table[s] = r
	t.refs.Set(uint64(r), 1)
	t.Allocs++
	return r
}

// RenameTo points (warp, arch) at an existing physical register group — the
// hit path ("Duplo simply renames registers and makes them point to the ones
// containing the same values", §I).
func (t *RenameTable) RenameTo(warp, arch int, r PhysReg) {
	if r == InvalidReg {
		panic("duplo: rename to invalid register")
	}
	s := t.slot(warp, arch)
	t.release(t.table[s])
	t.table[s] = r
	n, _ := t.refs.Get(uint64(r))
	t.refs.Set(uint64(r), n+1)
	t.Renames++
}

// Lookup returns the current physical mapping of (warp, arch), or
// InvalidReg if never written.
func (t *RenameTable) Lookup(warp, arch int) PhysReg { return t.table[t.slot(warp, arch)] }

// SharedWith returns how many rename slots currently reference r.
func (t *RenameTable) SharedWith(r PhysReg) int {
	n, _ := t.refs.Get(uint64(r))
	return int(n)
}

// LivePhysRegs returns the number of distinct physical register groups
// currently referenced — the register-file occupancy a duplicate-sharing
// scheme saves compared to Allocs.
func (t *RenameTable) LivePhysRegs() int { return t.refs.Len() }

// Reset returns the table to its just-built state, reusing the backing
// array and the refs table (sim.Arena reuse protocol).
func (t *RenameTable) Reset() {
	for i := range t.table {
		t.table[i] = InvalidReg
	}
	t.refs.Reset()
	t.next = 0
	t.Renames = 0
	t.Allocs = 0
}

func (t *RenameTable) release(r PhysReg) {
	if r == InvalidReg {
		return
	}
	if n, _ := t.refs.Get(uint64(r)); n > 1 {
		t.refs.Set(uint64(r), n-1)
	} else {
		t.refs.Delete(uint64(r))
	}
}
