package duplo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// randomParams draws a valid convolution from the generator values.
func randomParams(rng *rand.Rand) conv.Params {
	stride := 1 + rng.Intn(2)
	f := []int{1, 3, 5, 7}[rng.Intn(4)]
	h := f + rng.Intn(12) + stride
	w := f + rng.Intn(12) + stride
	return conv.Params{
		N:      1 + rng.Intn(3),
		H:      h,
		W:      w,
		C:      1 + rng.Intn(8),
		K:      1 + rng.Intn(8),
		FH:     f,
		FW:     f,
		Pad:    rng.Intn(f),
		Stride: stride,
	}
}

// Property: for any valid layer, equal IDs imply equal padded source
// coordinates and vice versa (the soundness invariant of §III), checked on
// randomly sampled workspace coordinate pairs.
func TestQuickIDSoundness(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		if p.Validate() != nil {
			return true
		}
		type src struct{ img, iy, ix, ch int }
		source := func(row, col int) src {
			img, oy, ox := lowering.RowToOutput(p, row)
			fy, fx, ch := lowering.ColToTap(p, col)
			return src{img, oy*p.Stride + fy, ox*p.Stride + fx, ch}
		}
		for i := 0; i < 50; i++ {
			r1, c1 := rng.Intn(p.GemmM()), rng.Intn(p.GemmK())
			r2, c2 := rng.Intn(p.GemmM()), rng.Intn(p.GemmK())
			id1, id2 := SemanticIDs(p, r1, c1), SemanticIDs(p, r2, c2)
			s1, s2 := source(r1, c1), source(r2, c2)
			if (id1 == id2) != (s1 == s2) {
				t.Logf("params %+v: (%d,%d)/(%d,%d): ids %v/%v srcs %v/%v",
					p, r1, c1, r2, c2, id1, id2, s1, s2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the hardware address path (IDGen with shift/reciprocal
// arithmetic) agrees with the semantic decode for random layers/coords.
func TestQuickIDGenAgreesWithSemantic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		if p.Validate() != nil {
			return true
		}
		layout := lowering.NewLayout(p, 0x4000, 2)
		ci, err := NewConvInfo(p, layout)
		if err != nil {
			return true
		}
		g := NewIDGen(ci)
		for i := 0; i < 50; i++ {
			row, col := rng.Intn(p.GemmM()), rng.Intn(p.GemmK())
			id, st := g.IDs(layout.Addr(row, col))
			if st != StatusOK {
				t.Logf("params %+v: (%d,%d) status %v", p, row, col, st)
				return false
			}
			if id != SemanticIDs(p, row, col) {
				t.Logf("params %+v: (%d,%d) gen %v semantic %v", p, row, col, id, SemanticIDs(p, row, col))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: an LHB lookup immediately after Insert hits and returns the
// inserted register, for any ID and any valid geometry; after Retire of the
// only user, it misses.
func TestQuickLHBInsertLookupRetire(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	prop := func(elem uint32, batch uint16, entPow uint8, waysSel uint8) bool {
		entries := 1 << (4 + entPow%8) // 16..2048
		ways := 1 << (waysSel % 3)     // 1, 2, 4
		l, err := NewLHB(LHBConfig{Entries: entries, Ways: ways}, 0)
		if err != nil {
			return false
		}
		id := ID{Elem: elem, Batch: uint32(batch) % 1024}
		l.Insert(id, PhysReg(7), 1, 42)
		reg, meta, hit := l.Lookup(id, 2)
		if !hit || reg != 7 || meta != 42 {
			return false
		}
		l.Retire(id, 1)
		l.Retire(id, 2)
		_, _, hit = l.Lookup(id, 3)
		return !hit
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the XOR-fold index always stays within [0, sets) and the tag
// distinguishes any two distinct IDs mapping to the same set.
func TestQuickLHBIndexTagConsistency(t *testing.T) {
	l, err := NewLHB(LHBConfig{Entries: 256, Ways: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 2000}
	prop := func(a, b uint32, ba, bb uint16) bool {
		idA := ID{Elem: a, Batch: uint32(ba) % 1024}
		idB := ID{Elem: b, Batch: uint32(bb) % 1024}
		ia, ib := l.index(idA), l.index(idB)
		if ia < 0 || ia >= 256 || ib < 0 || ib >= 256 {
			return false
		}
		if idA != idB && l.tag(idA) == l.tag(idB) {
			return false // distinct identities must never share a tag
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: rename-table sharing counts match the number of slots pointing
// at each register after any sequence of Alloc/RenameTo operations.
func TestQuickRenameSharing(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(ops []uint16) bool {
		const warps, regs = 4, 8
		rt := NewRenameTable(warps, regs)
		var allocated []PhysReg
		for _, op := range ops {
			w := int(op) % warps
			a := int(op>>2) % regs
			if op%3 == 0 || len(allocated) == 0 {
				allocated = append(allocated, rt.Alloc(w, a))
			} else {
				rt.RenameTo(w, a, allocated[int(op>>5)%len(allocated)])
			}
		}
		// Recount from the table.
		counts := map[PhysReg]int{}
		for w := 0; w < warps; w++ {
			for a := 0; a < regs; a++ {
				if r := rt.Lookup(w, a); r != InvalidReg {
					counts[r]++
				}
			}
		}
		if len(counts) != rt.LivePhysRegs() {
			return false
		}
		for r, n := range counts {
			if rt.SharedWith(r) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
