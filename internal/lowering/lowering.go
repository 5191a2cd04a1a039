// Package lowering implements im2col lowering of convolutions into GEMM
// workspaces (Fig. 1(b) and Fig. 4 of the paper).
//
// Layout, matching §III-C and Fig. 4 exactly:
//
//   - Workspace row index = n*(OutH*OutW) + oy*OutW + ox — one row per output
//     position, with batch images concatenated downwards.
//   - Workspace column index = fy*(FW*C) + fx*C + ch — the receptive field
//     flattened in NHWC order, with channels appended horizontally.
//
// The reduction depth K = FH*FW*C is padded to KPad (a multiple of the
// tensor-core tile size, 16) with zero columns, exactly as real tensor-core
// GEMM kernels require. The padded columns contain no duplicated input data,
// so the Duplo ID generator treats them as outside the duplication region.
package lowering

import (
	"fmt"

	"duplo/internal/conv"
	"duplo/internal/tensor"
)

// Tile is the tensor-core tile edge (16x16x16 MMA steps, §II-B).
const Tile = 16

// RoundUp returns the smallest multiple of m that is >= x.
func RoundUp(x, m int) int { return (x + m - 1) / m * m }

// Layout describes the address arithmetic of an explicit workspace in device
// memory. The Duplo ID generator (internal/core) consumes this plus the
// convolution parameters; it is the "convolution information" the compiler
// stores for the detection unit (§IV-A).
type Layout struct {
	Base     uint64 // starting address of the workspace region
	ElemSize int    // bytes per element (2 for half precision)
	M        int    // rows (N * OutH * OutW)
	K        int    // logical columns (FH * FW * C)
	KPad     int    // padded row pitch in elements (multiple of Tile)
}

// NewLayout builds the workspace layout for p at the given base address.
func NewLayout(p conv.Params, base uint64, elemSize int) Layout {
	return Layout{
		Base:     base,
		ElemSize: elemSize,
		M:        p.GemmM(),
		K:        p.GemmK(),
		KPad:     RoundUp(p.GemmK(), Tile),
	}
}

// Bytes returns the size of the workspace region in bytes.
func (l Layout) Bytes() uint64 {
	return uint64(l.M) * uint64(l.KPad) * uint64(l.ElemSize)
}

// Contains reports whether addr falls inside the workspace region. This is
// the region check the detection unit performs on every tensor-core-load
// (§IV-A): only workspace addresses are candidates for duplication.
func (l Layout) Contains(addr uint64) bool {
	return addr >= l.Base && addr < l.Base+l.Bytes()
}

// Addr returns the device address of workspace element (row, col).
func (l Layout) Addr(row, col int) uint64 {
	return l.Base + uint64(row*l.KPad+col)*uint64(l.ElemSize)
}

// Coords inverts Addr: it maps a workspace address to (row, col), where col
// is in padded coordinates [0, KPad). The second return is false if addr is
// outside the region or not element-aligned.
func (l Layout) Coords(addr uint64) (row, col int, ok bool) {
	if !l.Contains(addr) {
		return 0, 0, false
	}
	off := addr - l.Base
	if off%uint64(l.ElemSize) != 0 {
		return 0, 0, false
	}
	e := int(off / uint64(l.ElemSize))
	return e / l.KPad, e % l.KPad, true
}

// Lowered bundles the explicit workspace matrix A, the filter matrix B, and
// the GEMM dimensions for one convolution.
type Lowered struct {
	P conv.Params
	// A is M x K with row pitch KPad (padding columns zero).
	A *tensor.Matrix
	// B is KPad x NPad: B[(fy*FW+fx)*C+ch][k] = filter k's tap value.
	// Rows >= K and columns >= N are zero padding.
	B *tensor.Matrix
	// Logical and padded GEMM dims.
	M, K, N, KPad, NPad int
}

// Lower expands input into the explicit workspace matrix and builds the
// filter matrix. This is the "explicitly creating the workspace in global
// memory" form of §II-C, which is the paper's baseline kernel configuration.
func Lower(p conv.Params, input, filters *tensor.Tensor) (*Lowered, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if input.N != p.N || input.H != p.H || input.W != p.W || input.C != p.C {
		return nil, fmt.Errorf("lowering: input shape %s != params %v", input.ShapeString(), p)
	}
	if filters.N != p.K || filters.H != p.FH || filters.W != p.FW || filters.C != p.C {
		return nil, fmt.Errorf("lowering: filter shape %s != params %v", filters.ShapeString(), p)
	}
	m, k, n := p.GemmM(), p.GemmK(), p.GemmN()
	kp, np := RoundUp(k, Tile), RoundUp(n, Tile)
	a := tensor.NewMatrixStrided(m, k, kp)
	row := 0
	for img := 0; img < p.N; img++ {
		for oy := 0; oy < p.OutH(); oy++ {
			for ox := 0; ox < p.OutW(); ox++ {
				FillRow(p, input, img, oy, ox, a.Row(row))
				row++
			}
		}
	}
	b := tensor.NewMatrixStrided(kp, n, np)
	for fy := 0; fy < p.FH; fy++ {
		for fx := 0; fx < p.FW; fx++ {
			for c := 0; c < p.C; c++ {
				kr := (fy*p.FW+fx)*p.C + c
				for f := 0; f < n; f++ {
					b.Set(kr, f, filters.At(f, fy, fx, c))
				}
			}
		}
	}
	return &Lowered{P: p, A: a, B: b, M: m, K: k, N: n, KPad: kp, NPad: np}, nil
}

// FillRow writes the workspace row for output position (img, oy, ox) into
// dst (length >= GemmK). Lower builds the workspace one FillRow per row.
func FillRow(p conv.Params, input *tensor.Tensor, img, oy, ox int, dst []float32) {
	i := 0
	for fy := 0; fy < p.FH; fy++ {
		iy := oy*p.Stride + fy - p.Pad
		for fx := 0; fx < p.FW; fx++ {
			ix := ox*p.Stride + fx - p.Pad
			if iy < 0 || iy >= p.H || ix < 0 || ix >= p.W {
				for c := 0; c < p.C; c++ {
					dst[i] = 0
					i++
				}
				continue
			}
			base := input.Index(img, iy, ix, 0)
			copy(dst[i:i+p.C], input.Data[base:base+p.C])
			i += p.C
		}
	}
}

// RowToOutput maps a workspace row index back to its output coordinates.
func RowToOutput(p conv.Params, row int) (img, oy, ox int) {
	per := p.OutH() * p.OutW()
	img = row / per
	r := row % per
	return img, r / p.OutW(), r % p.OutW()
}

// ColToTap maps a workspace column index to its filter tap coordinates.
func ColToTap(p conv.Params, col int) (fy, fx, ch int) {
	ch = col % p.C
	t := col / p.C
	return t / p.FW, t % p.FW, ch
}

// SourceElem returns, for workspace entry (row, col), the input coordinates
// it was copied from, or ok=false when the entry reads the zero-padding halo.
// Two workspace entries are duplicates exactly when they map to the same
// (img, iy, ix, ch) — the ground truth the Duplo ID scheme must reproduce.
func SourceElem(p conv.Params, row, col int) (img, iy, ix, ch int, ok bool) {
	img, oy, ox := RowToOutput(p, row)
	fy, fx, ch := ColToTap(p, col)
	iy = oy*p.Stride + fy - p.Pad
	ix = ox*p.Stride + fx - p.Pad
	if iy < 0 || iy >= p.H || ix < 0 || ix >= p.W {
		return 0, 0, 0, 0, false
	}
	return img, iy, ix, ch, true
}
