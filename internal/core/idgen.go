package duplo

import (
	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// ID is the (batch ID, element ID) pair that uniquely identifies the input
// datum a workspace entry was copied from (§III-B/C). Two workspace entries
// hold the same value exactly when their IDs are equal.
type ID struct {
	Batch uint32
	Elem  uint32
}

// Status classifies an address presented to the ID generator.
type Status uint8

const (
	// StatusOutside: the address is not in the workspace region; the load
	// bypasses the LHB and goes straight to L1 (§IV-A).
	StatusOutside Status = iota
	// StatusPadCol: the address is in the workspace but in a K-padding
	// column (zero fill for tile alignment); no duplication tracking.
	StatusPadCol
	// StatusOK: a genuine workspace element with a valid ID pair.
	StatusOK
)

// IDGen is the detection unit's ID generator (Fig. 8). It is programmed at
// kernel launch from the compiler-generated ConvInfo and translates
// tensor-core-load addresses into ID pairs using only shift/mask and
// multiply-by-reciprocal operations (§IV-A).
//
// Generalization note (documented in DESIGN.md): the paper's §III formulas
// use the raw input width in the patch offset; with zero padding that would
// alias halo entries onto real data. We use the padded width (W + 2*Pad) as
// the offset pitch, which keeps the map injective; for the paper's pad-0
// examples this reduces to the printed formulas exactly.
type IDGen struct {
	info ConvInfo

	base     uint64
	bytes    uint64
	rows     uint64 // workspace rows M = N*OutH*OutW
	pitch    uint64 // workspace row pitch in bytes, KPad*ElemSize
	elemSize uint32
	k        uint32 // logical columns FH*FW*C

	divKPad  divider // address -> (row, col)
	divOutHW divider // row -> (batch, row-in-image)
	divOutW  divider // row-in-image -> (oy, ox)
	divFWC   divider // col -> (fy, fx*C+ch)

	stride uint32
	wpc    uint32 // (W+2*Pad)*C, the element-ID row pitch
	cs     uint32 // C*Stride, multiplier for ox
}

// NewIDGen programs an ID generator from the convolution information.
func NewIDGen(ci ConvInfo) *IDGen {
	k := uint32(ci.FilterH) * uint32(ci.FilterW) * uint32(ci.Channels)
	outHW := uint32(ci.OutH) * uint32(ci.OutW)
	rows := uint64(ci.Batch) * uint64(outHW)
	g := &IDGen{
		info:     ci,
		base:     ci.Base,
		bytes:    rows * uint64(ci.KPad) * uint64(ci.ElemSize),
		rows:     rows,
		pitch:    uint64(ci.KPad) * uint64(ci.ElemSize),
		elemSize: uint32(ci.ElemSize),
		k:        k,
		divKPad:  newDivider(ci.KPad),
		divOutHW: newDivider(outHW),
		divOutW:  newDivider(uint32(ci.OutW)),
		divFWC:   newDivider(uint32(ci.FilterW) * uint32(ci.Channels)),
		stride:   uint32(ci.Stride),
		wpc:      (uint32(ci.InW) + 2*uint32(ci.Pad)) * uint32(ci.Channels),
		cs:       uint32(ci.Channels) * uint32(ci.Stride),
	}
	return g
}

// InWorkspace reports whether addr falls in the workspace region — the
// validity check performed before any ID math (§IV-A: "since data
// duplication appears only in a workspace").
func (g *IDGen) InWorkspace(addr uint64) bool {
	return addr >= g.base && addr < g.base+g.bytes
}

// IDs translates a workspace address into its ID pair.
func (g *IDGen) IDs(addr uint64) (ID, Status) {
	if !g.InWorkspace(addr) {
		return ID{}, StatusOutside
	}
	e := uint32((addr - g.base) / uint64(g.elemSize))
	row, col := g.divKPad.DivMod(e)
	if col >= g.k {
		return ID{}, StatusPadCol
	}
	return g.FromCoords(row, col), StatusOK
}

// FromCoords computes the ID pair of workspace entry (row, col) in logical
// coordinates. Exposed for the trace generator, which knows tile coordinates
// directly.
func (g *IDGen) FromCoords(row, col uint32) ID {
	batch, rowIm := g.divOutHW.DivMod(row)
	oy, ox := g.divOutW.DivMod(rowIm)
	fy, fxc := g.divFWC.DivMod(col) // fxc = fx*C + ch
	return ID{Batch: batch, Elem: g.elem(oy, ox, fy, fxc)}
}

// elem is the element ID of output position (oy, ox) at filter tap
// (fy, fxc = fx*C + ch):
// element_id = ox*C*S + (fx*C + ch) + (oy*S + fy) * Wp*C   (§III-C).
func (g *IDGen) elem(oy, ox, fy, fxc uint32) uint32 {
	return ox*g.cs + fxc + (oy*g.stride+fy)*g.wpc
}

// TileIDs decodes the IDs of the TileRows row loads of one tensor-core
// load, row r at addr + r*pitch, into ids. It returns a mask whose bit r is
// set when row r is a workspace element (IDs' StatusOK); every other row
// bypasses the LHB and gets ID{}.
//
// An A-tile load steps one workspace row per row load, so its rows are
// consecutive GEMM rows of one column: TileIDs runs the divide chain for
// row 0 only and steps (ox, oy, batch) for the rest, stopping at row M,
// where the workspace ends. At any other pitch, or from an address outside
// the workspace, it decodes each row with IDs.
func (g *IDGen) TileIDs(addr uint64, pitch uint32, ids *[TileRows]ID) (ok uint16) {
	if uint64(pitch) != g.pitch || !g.InWorkspace(addr) {
		for r := range ids {
			id, st := g.IDs(addr + uint64(r)*uint64(pitch))
			ids[r] = id
			if st == StatusOK {
				ok |= 1 << r
			}
		}
		return ok
	}
	*ids = [TileRows]ID{}
	row, col := g.divKPad.DivMod(uint32((addr - g.base) / uint64(g.elemSize)))
	if col >= g.k {
		return 0 // a K-padding column, in every row
	}
	batch, rowIm := g.divOutHW.DivMod(row)
	oy, ox := g.divOutW.DivMod(rowIm)
	fy, fxc := g.divFWC.DivMod(col)
	outH, outW := uint32(g.info.OutH), uint32(g.info.OutW)
	for r := 0; r < TileRows && uint64(row)+uint64(r) < g.rows; r++ {
		ids[r] = ID{Batch: batch, Elem: g.elem(oy, ox, fy, fxc)}
		ok |= 1 << r
		if ox++; ox == outW {
			ox = 0
			if oy++; oy == outH {
				oy = 0
				batch++
			}
		}
	}
	return ok
}

// HardwareFriendly reports whether every divider in the generator
// decomposes into a shift (power-of-two factor) plus a small-odd-divisor
// reciprocal (odd part < 256) — the constraint under which the paper's
// two-cycle logic estimate holds (§IV-A: power-of-two data dimensions plus
// Jones-style small-divisor logic for filter sizes like 3 and 5). Every
// Table I layer satisfies it after K-padding.
func (g *IDGen) HardwareFriendly() bool {
	for _, d := range []divider{g.divKPad, g.divOutHW, g.divOutW, g.divFWC} {
		odd := d.d
		for odd&1 == 0 {
			odd >>= 1
		}
		if odd >= 256 {
			return false
		}
	}
	return true
}

// UniqueIDLimit returns the number of distinct element IDs per image, i.e.
// the padded-input element count. The ratio of workspace entries to this is
// the duplication the LHB can theoretically exploit.
func (g *IDGen) UniqueIDLimit() uint64 {
	hp := uint64(g.info.InH) + 2*uint64(g.info.Pad)
	return hp * uint64(g.wpc)
}

// PaperIDs computes the ID pair for workspace entry (row, col) using the
// §III-B/C formulas verbatim (patch IDs and offsets), with the padded-width
// substitution noted above. It must agree with FromCoords everywhere; the
// property test in idgen_test.go checks that, and the Fig. 6 test pins the
// printed example values.
func PaperIDs(p conv.Params, row, col int) ID {
	outHW := p.OutH() * p.OutW()
	batch := row / outHW // batch_id = worksp_row_idx / (output_w * output_h)
	rowIm := row % outHW

	// patch_row_idx = worksp_row_idx / output_height (square outputs)
	patchRow := rowIm / p.OutH()
	// patch_col_idx = worksp_col_idx / filter_width (per-channel groups)
	patchCol := col / (p.FW * p.C)
	// patch_id = patch_row_idx * stride_dist + patch_col_idx
	patchID := patchRow*p.Stride + patchCol
	// offset = patch_id * input_width * num_channels (padded width, see doc)
	offset := patchID * (p.W + 2*p.Pad) * p.C
	// element_id = row % output_width * C * stride
	//            + col % (filter_width * C) + offset
	elem := (rowIm%p.OutW())*p.C*p.Stride + col%(p.FW*p.C) + offset
	return ID{Batch: uint32(batch), Elem: uint32(elem)}
}

// SemanticIDs computes the ID pair from first principles: decode (row, col)
// to the source input coordinates and use the padded-image linear index.
// This is the ground-truth definition the hardware formulas must reproduce.
func SemanticIDs(p conv.Params, row, col int) ID {
	img, oy, ox := lowering.RowToOutput(p, row)
	fy, fx, ch := lowering.ColToTap(p, col)
	iy := oy*p.Stride + fy // padded coordinates
	ix := ox*p.Stride + fx
	wp := p.W + 2*p.Pad
	elem := (iy*wp+ix)*p.C + ch
	return ID{Batch: uint32(img), Elem: uint32(elem)}
}
