package duplo

import (
	"math/rand"
	"strings"
	"testing"

	"duplo/internal/conv"
	"duplo/internal/lowering"
	"duplo/internal/workload"
)

var fig6Params = conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}

// Fig. 6 prints the complete element-ID grid for the 4x4/3x3 example. The ID
// generator must reproduce it exactly.
func TestElementIDsMatchFig6(t *testing.T) {
	want := [4][9]uint32{
		{0, 1, 2, 4, 5, 6, 8, 9, 10},
		{1, 2, 3, 5, 6, 7, 9, 10, 11},
		{4, 5, 6, 8, 9, 10, 12, 13, 14},
		{5, 6, 7, 9, 10, 11, 13, 14, 15},
	}
	for row := 0; row < 4; row++ {
		for col := 0; col < 9; col++ {
			if got := PaperIDs(fig6Params, row, col); got.Elem != want[row][col] || got.Batch != 0 {
				t.Errorf("PaperIDs(%d,%d) = %+v, want elem %d", row, col, got, want[row][col])
			}
			if got := SemanticIDs(fig6Params, row, col); got.Elem != want[row][col] {
				t.Errorf("SemanticIDs(%d,%d) = %+v, want elem %d", row, col, got, want[row][col])
			}
		}
	}
}

// Fig. 6 also prints the patch-ID grid; spot-check it through the paper
// formula components embedded in PaperIDs via known offsets: patch IDs are
// elem/4 for the first column group entries with fx=ch=0 and ox=0... instead
// we verify the printed property directly: patches on the same diagonal get
// identical IDs, i.e. (row 0, cols 3..5) and (row 2, cols 0..2) have equal
// element IDs element-wise ([1,0,-2] in the worked example).
func TestInterPatchDuplication(t *testing.T) {
	for i := 0; i < 3; i++ {
		a := PaperIDs(fig6Params, 0, 3+i)
		b := PaperIDs(fig6Params, 2, 0+i)
		if a != b {
			t.Errorf("inter-patch duplicate (0,%d) vs (2,%d): %+v vs %+v", 3+i, i, a, b)
		}
	}
}

// Intra-patch duplication: the horizontal filter slide makes [1,4] of the
// example appear twice: (row 0, col 1) == (row 1, col 0), etc.
func TestIntraPatchDuplication(t *testing.T) {
	pairs := [][4]int{{0, 1, 1, 0}, {0, 2, 1, 1}, {0, 4, 1, 3}, {2, 1, 3, 0}}
	for _, q := range pairs {
		a := PaperIDs(fig6Params, q[0], q[1])
		b := PaperIDs(fig6Params, q[2], q[3])
		if a != b {
			t.Errorf("intra-patch duplicate (%d,%d) vs (%d,%d): %+v vs %+v", q[0], q[1], q[2], q[3], a, b)
		}
	}
}

// The total number of unique IDs must equal the original input size
// (§III-B: "the count matches the number of elements in the original 4x4
// input").
func TestUniqueIDCountFig6(t *testing.T) {
	seen := map[ID]bool{}
	for row := 0; row < 4; row++ {
		for col := 0; col < 9; col++ {
			seen[PaperIDs(fig6Params, row, col)] = true
		}
	}
	if len(seen) != 16 {
		t.Fatalf("unique IDs = %d, want 16", len(seen))
	}
}

var idTestLayers = []conv.Params{
	fig6Params,
	{N: 2, H: 8, W: 8, C: 4, K: 8, FH: 3, FW: 3, Pad: 1, Stride: 1},
	{N: 2, H: 8, W: 8, C: 4, K: 8, FH: 3, FW: 3, Pad: 0, Stride: 2},
	{N: 1, H: 16, W: 16, C: 8, K: 4, FH: 5, FW: 5, Pad: 2, Stride: 2},
	{N: 3, H: 12, W: 12, C: 2, K: 4, FH: 7, FW: 7, Pad: 3, Stride: 2},
	{N: 1, H: 8, W: 8, C: 16, K: 16, FH: 1, FW: 1, Pad: 0, Stride: 1},
}

// Soundness (the property the whole mechanism rests on): two workspace
// entries get equal IDs if and only if they were copied from the same padded
// input element. Checked exhaustively on a family of layers including
// padding, stride, channels and batch.
func TestIDSoundnessAndCompleteness(t *testing.T) {
	for _, p := range idTestLayers {
		type src struct{ img, iy, ix, ch int }
		bySrc := map[src]ID{}
		byID := map[ID]src{}
		for row := 0; row < p.GemmM(); row++ {
			for col := 0; col < p.GemmK(); col++ {
				id := SemanticIDs(p, row, col)
				img, oy, ox := lowering.RowToOutput(p, row)
				fy, fx, ch := lowering.ColToTap(p, col)
				s := src{img, oy*p.Stride + fy, ox*p.Stride + fx, ch} // padded coords
				if prev, ok := bySrc[s]; ok && prev != id {
					t.Fatalf("%v: same source %+v got different IDs %+v vs %+v", p, s, prev, id)
				}
				bySrc[s] = id
				if prevSrc, ok := byID[id]; ok && prevSrc != s {
					t.Fatalf("%v: ID %+v aliases sources %+v and %+v", p, id, prevSrc, s)
				}
				byID[id] = s
			}
		}
	}
}

// The paper formulas (PaperIDs) and the first-principles decode
// (SemanticIDs) must agree on every square-output layer.
func TestPaperFormulaEqualsSemantic(t *testing.T) {
	for _, p := range idTestLayers {
		if p.OutH() != p.OutW() {
			continue // paper formulas assume square outputs (§III-B)
		}
		for row := 0; row < p.GemmM(); row++ {
			for col := 0; col < p.GemmK(); col++ {
				a, b := PaperIDs(p, row, col), SemanticIDs(p, row, col)
				if a != b {
					t.Fatalf("%v: (%d,%d) paper %+v != semantic %+v", p, row, col, a, b)
				}
			}
		}
	}
}

// The hardware IDGen (address-driven, shift/magic arithmetic) must agree
// with SemanticIDs through the full address path.
func TestIDGenMatchesSemantic(t *testing.T) {
	for _, p := range idTestLayers {
		layout := lowering.NewLayout(p, 0x10000, 2)
		ci, err := NewConvInfo(p, layout)
		if err != nil {
			t.Fatal(err)
		}
		g := NewIDGen(ci)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 5000; i++ {
			row := rng.Intn(p.GemmM())
			col := rng.Intn(layout.KPad)
			addr := layout.Addr(row, col)
			id, st := g.IDs(addr)
			if col >= p.GemmK() {
				if st != StatusPadCol {
					t.Fatalf("%v: (%d,%d) pad col status %v", p, row, col, st)
				}
				continue
			}
			if st != StatusOK {
				t.Fatalf("%v: (%d,%d) status %v", p, row, col, st)
			}
			if want := SemanticIDs(p, row, col); id != want {
				t.Fatalf("%v: (%d,%d) gen %+v != semantic %+v", p, row, col, id, want)
			}
		}
		// Outside addresses.
		if _, st := g.IDs(0x10000 - 2); st != StatusOutside {
			t.Error("address below base not Outside")
		}
		if _, st := g.IDs(0x10000 + layout.Bytes()); st != StatusOutside {
			t.Error("address past end not Outside")
		}
		if !g.HardwareFriendly() {
			t.Errorf("%v: expected hardware-friendly dividers", p)
		}
	}
}

// TileIDs must decode every row of a tile exactly as IDs does per row, on
// every Table I layer: tiles whose rows cross an output row (ox wraps), an
// image's last output row (oy and batch wrap) and the workspace's end (rows
// past M), tiles in padding columns, tiles below and past the workspace
// (the filter matrix B sits past it), tiles at the filter matrix's pitch
// and at other non-workspace pitches, and random workspace tiles.
func TestTileIDsMatchPerRow(t *testing.T) {
	const base = 0x10000
	for _, l := range workload.AllLayers() {
		p := l.GemmParams()
		layout := lowering.NewLayout(p, base, 2)
		ci, err := NewConvInfo(p, layout)
		if err != nil {
			t.Fatal(err)
		}
		g := NewIDGen(ci)
		check := func(what string, addr uint64, pitch uint32) (ok uint16) {
			t.Helper()
			var ids [TileRows]ID
			ok = g.TileIDs(addr, pitch, &ids)
			for r := range ids {
				id, st := g.IDs(addr + uint64(r)*uint64(pitch))
				if ids[r] != id || (ok>>r&1 != 0) != (st == StatusOK) {
					t.Fatalf("%s %s: tile at %#x pitch %d, row %d: TileIDs %+v (tracked %v); IDs %+v (%v)",
						l.FullName(), what, addr, pitch, r, ids[r], ok>>r&1 != 0, id, st)
				}
			}
			return ok
		}
		pitch := uint32(layout.KPad * layout.ElemSize)
		m, ohw, ow := p.GemmM(), p.OutH()*p.OutW(), p.OutW()
		for _, e := range []struct {
			what string
			row  int
		}{
			{"first row", 0}, {"ox wrap", ow - 3}, {"mid-image start", ohw/2 + 1},
			{"oy+batch wrap", ohw - 5}, {"second image", 2*ohw - 1},
			{"rows past M", m - 7}, {"last row", m - 1},
		} {
			for _, col := range []int{0, 5, layout.K - 1} {
				check(e.what, layout.Addr(e.row, col), pitch)
			}
		}
		if got := check("rows past M", layout.Addr(m-7, 0), pitch); got != 1<<7-1 {
			t.Fatalf("%s: tile from row M-7 tracks rows %016b, want the first 7", l.FullName(), got)
		}
		if layout.KPad > layout.K {
			if got := check("pad column", layout.Addr(ohw-5, layout.K), pitch); got != 0 {
				t.Fatalf("%s: a padding-column tile tracks rows %016b", l.FullName(), got)
			}
		}
		check("below the workspace", base-3*uint64(pitch), pitch)
		bPitch := uint32(lowering.RoundUp(p.K, lowering.Tile) * layout.ElemSize)
		if got := check("B region", base+layout.Bytes()+64, bPitch); got != 0 {
			t.Fatalf("%s: a B-region tile tracks rows %016b", l.FullName(), got)
		}
		check("B pitch in the workspace", layout.Addr(ohw-5, 0), bPitch)
		check("pitch + 2", layout.Addr(ow-3, 5), pitch+2)
		check("double pitch", layout.Addr(ohw-5, 5), 2*pitch)
		rng := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < 200; i++ {
			check("random", layout.Addr(rng.Intn(m), rng.Intn(layout.KPad)), pitch)
		}
	}
}

// Batch IDs differentiate images: same within-image position in different
// images must differ in Batch but share Elem (§III-C).
func TestBatchDifferentiation(t *testing.T) {
	p := conv.Params{N: 4, H: 8, W: 8, C: 2, K: 2, FH: 3, FW: 3, Pad: 1, Stride: 1}
	per := p.OutH() * p.OutW()
	for img := 1; img < 4; img++ {
		a := SemanticIDs(p, 5, 7)
		b := SemanticIDs(p, img*per+5, 7)
		if b.Batch != uint32(img) || a.Batch != 0 {
			t.Fatalf("batch IDs: %+v vs %+v", a, b)
		}
		if a.Elem != b.Elem {
			t.Fatalf("element IDs should match across images: %+v vs %+v", a, b)
		}
	}
}

// The ID generator's unique-ID limit bounds the observed unique count.
func TestUniqueIDLimit(t *testing.T) {
	p := conv.Params{N: 1, H: 6, W: 6, C: 2, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 1}
	layout := lowering.NewLayout(p, 0, 2)
	ci, _ := NewConvInfo(p, layout)
	g := NewIDGen(ci)
	seen := map[uint32]bool{}
	for row := 0; row < p.GemmM(); row++ {
		for col := 0; col < p.GemmK(); col++ {
			seen[SemanticIDs(p, row, col).Elem] = true
		}
	}
	if uint64(len(seen)) > g.UniqueIDLimit() {
		t.Fatalf("unique %d exceeds limit %d", len(seen), g.UniqueIDLimit())
	}
}

func TestConvInfoSerialize(t *testing.T) {
	p := conv.Params{N: 8, H: 56, W: 56, C: 64, K: 128, FH: 3, FW: 3, Pad: 1, Stride: 1}
	layout := lowering.NewLayout(p, 0xDEAD0000, 2)
	ci, err := NewConvInfo(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	b := ci.Serialize()
	if len(b) != 32 {
		t.Fatalf("serialized size %d != 32 (§IV-A)", len(b))
	}
	back := DeserializeConvInfo(b)
	if back != ci {
		t.Fatalf("round trip: %+v vs %+v", back, ci)
	}
}

func TestConvInfoBatchLimit(t *testing.T) {
	p := conv.Params{N: 2048, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	if _, err := NewConvInfo(p, lowering.NewLayout(p, 0, 2)); err == nil {
		t.Fatal("expected batch-limit error (10-bit batch ID)")
	}
}

// The ID generator indexes workspace elements in 32 bits, so a workspace
// of more than 2^32 elements must be rejected: batch 1024 of a 56x56x256
// 3x3 layer has M*KPad = 3,211,264 x 2,304 = 7.4G elements, and its row
// 2,000,000, column 5 would decode to {43 299525} where SemanticIDs gives
// {637 627717}. The largest batch that fits is accepted.
func TestConvInfoWorkspaceIndexLimit(t *testing.T) {
	p := conv.Params{N: 1024, H: 56, W: 56, C: 256, K: 256, FH: 3, FW: 3, Pad: 1, Stride: 1}
	_, err := NewConvInfo(p, lowering.NewLayout(p, 0, 2))
	if err == nil || !strings.Contains(err.Error(), "2^32") {
		t.Fatalf("NewConvInfo(%v) = %v, want an error naming the 2^32-element index", p, err)
	}
	p.N = 1 << 32 / (p.OutH() * p.OutW() * 2304) // the largest batch that fits
	if _, err := NewConvInfo(p, lowering.NewLayout(p, 0, 2)); err != nil {
		t.Fatalf("batch %d (%d elements): %v", p.N, p.GemmM()*2304, err)
	}
}
