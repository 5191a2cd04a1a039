package duplo

import "fmt"

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
	r := t.next
	t.next++
	t.table[t.slot(warp, arch)] = r
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
	t.table[t.slot(warp, arch)] = r
	t.Renames++
}

// Lookup returns the current physical mapping of (warp, arch), or
// InvalidReg if never written.
func (t *RenameTable) Lookup(warp, arch int) PhysReg { return t.table[t.slot(warp, arch)] }

// SharedWith returns how many rename slots currently reference r (a scan
// of the table: only tests ask).
func (t *RenameTable) SharedWith(r PhysReg) int {
	n := 0
	for _, p := range t.table {
		if p == r {
			n++
		}
	}
	return n
}

// LivePhysRegs returns the number of distinct physical register groups
// currently referenced — the register-file occupancy a duplicate-sharing
// scheme saves compared to Allocs (a scan of the table: only tests ask).
func (t *RenameTable) LivePhysRegs() int {
	live := map[PhysReg]bool{}
	for _, p := range t.table {
		if p != InvalidReg {
			live[p] = true
		}
	}
	return len(live)
}
