package sim

import (
	"fmt"

	duplo "duplo/internal/core"
)

// Op is the warp-level instruction kind of the tensor-core GEMM kernel.
type Op uint8

const (
	// OpLoadA is a wmma.load.a fetching a 16x16 half tile of the workspace
	// matrix A from global memory — the instruction class Duplo filters.
	OpLoadA Op = iota
	// OpLoadB is a wmma.load.b fetching a 16x16 half tile of the filter
	// matrix B (outside the workspace region; always bypasses the LHB).
	OpLoadB
	// OpMMA is a warp-level wmma.mma 16x16x16 step on the tensor cores.
	OpMMA
	// OpStoreD writes a 16x16 fp32 tile of D to global memory.
	OpStoreD
)

// String names the op like PTX.
func (o Op) String() string {
	switch o {
	case OpLoadA:
		return "wmma.load.a"
	case OpLoadB:
		return "wmma.load.b"
	case OpMMA:
		return "wmma.mma"
	case OpStoreD:
		return "wmma.store.d"
	}
	return "?"
}

// Instr is one decoded warp instruction. Register operands identify
// register groups within the warp (a wmma fragment = 8 registers/thread,
// tracked as one group, §IV-C).
type Instr struct {
	Op   Op
	Dst  uint8 // destination register group (loads, MMA accumulator)
	SrcA uint8 // MMA: A fragment group
	SrcB uint8 // MMA: B fragment group
	// Memory geometry (loads/stores): a 16-row tile starting at Addr with
	// RowBytes bytes per row segment and RowPitch bytes between rows.
	Addr     uint64
	RowPitch uint32
	RowBytes uint16
}

// tileRows is the number of row-vector loads one wmma.load expands into,
// the detection unit's unit of work.
const tileRows = duplo.TileRows

// relocateInstr rebases a canonical-program instruction to a warp's
// absolute tile origin (kernel.warpOffsets). MMA steps carry no address
// and pass through untouched.
func relocateInstr(in *Instr, aOff, bOff, dOff uint64) {
	switch in.Op {
	case OpLoadA:
		in.Addr += aOff
	case OpLoadB:
		in.Addr += bOff
	case OpStoreD:
		in.Addr += dOff
	}
}

// warpProgram synthesizes a warp's instruction stream lazily: programs for
// large layers reach millions of instructions per CTA wave, so they are
// decoded on demand from the loop structure instead of materialized.
//
// The stream mirrors the §II-C baseline kernel (only C staged in shared
// memory): for every 16-deep k-step, each of the warp's A row tiles and B
// column tiles is loaded TWICE (the octet duplication of §II-B: "each half
// of input matrices A and B are loaded twice by different octets"),
// followed by the rt x ct MMA steps; after the k-loop the accumulators are
// stored to D.
type warpProgram struct {
	k       *Kernel
	work    warpWork
	ktiles  int
	rt, ct  int
	blockLn int // instructions per k-step
	total   int
}

func newWarpProgram(k *Kernel, work warpWork) *warpProgram {
	rt, ct := len(work.rowTiles), len(work.colTiles)
	p := &warpProgram{
		k:      k,
		work:   work,
		ktiles: k.KTiles(),
		rt:     rt,
		ct:     ct,
	}
	if rt == 0 || ct == 0 {
		return p // empty program
	}
	p.blockLn = 2*rt + 2*ct + rt*ct
	p.total = p.ktiles*p.blockLn + rt*ct
	return p
}

// Len returns the instruction count.
func (p *warpProgram) Len() int { return p.total }

// RegGroups returns the number of register groups the warp uses
// (2rt A copies + 2ct B copies + rt*ct accumulators).
func (p *warpProgram) RegGroups() int { return 2*p.rt + 2*p.ct + p.rt*p.ct }

// regA returns the register group of A tile a, copy c.
func (p *warpProgram) regA(a, c int) uint8 { return uint8(a*2 + c) }

// regB returns the register group of B tile b, copy c.
func (p *warpProgram) regB(b, c int) uint8 { return uint8(2*p.rt + b*2 + c) }

// regAcc returns the accumulator group of tile (a, b).
func (p *warpProgram) regAcc(a, b int) uint8 { return uint8(2*p.rt + 2*p.ct + a*p.ct + b) }

// At decodes instruction i. An out-of-range index is an internal
// consistency failure (a corrupted pc); it panics with a structured
// *SimError that the run loop's containment (gpu.go) converts into an
// error with a crash dump instead of killing the process.
func (p *warpProgram) At(i int) Instr {
	if i < 0 || i >= p.total {
		panic(&SimError{
			Phase:  PhaseProgram,
			Reason: fmt.Sprintf("warp program index %d out of range [0,%d)", i, p.total),
		})
	}
	k := p.k
	if i < p.ktiles*p.blockLn {
		kt := i / p.blockLn
		j := i % p.blockLn
		switch {
		case j < 2*p.rt: // A loads (two copies per row tile)
			a, c := j/2, j%2
			row := p.work.rowTiles[a]
			return Instr{
				Op:       OpLoadA,
				Dst:      p.regA(a, c),
				Addr:     k.ABase + uint64(row*k.KPad+kt*16)*uint64(k.ElemSize),
				RowPitch: uint32(k.KPad * k.ElemSize),
				RowBytes: uint16(16 * k.ElemSize),
			}
		case j < 2*p.rt+2*p.ct: // B loads (two copies per column tile)
			jj := j - 2*p.rt
			b, c := jj/2, jj%2
			col := p.work.colTiles[b]
			return Instr{
				Op:       OpLoadB,
				Dst:      p.regB(b, c),
				Addr:     k.BBase + uint64(kt*16*k.NPad+col)*uint64(k.ElemSize),
				RowPitch: uint32(k.NPad * k.ElemSize),
				RowBytes: uint16(16 * k.ElemSize),
			}
		default: // MMA steps
			m := j - 2*p.rt - 2*p.ct
			a, b := m/p.ct, m%p.ct
			// Octet pairing: the left column half consumes A copy 0, the
			// right half copy 1; the top row half consumes B copy 0, the
			// bottom half copy 1 (§II-B, Fig. 4).
			ac := 0
			if b >= (p.ct+1)/2 {
				ac = 1
			}
			bc := 0
			if a >= (p.rt+1)/2 {
				bc = 1
			}
			return Instr{
				Op:   OpMMA,
				Dst:  p.regAcc(a, b),
				SrcA: p.regA(a, ac),
				SrcB: p.regB(b, bc),
			}
		}
	}
	// Epilogue stores.
	m := i - p.ktiles*p.blockLn
	a, b := m/p.ct, m%p.ct
	row, col := p.work.rowTiles[a], p.work.colTiles[b]
	return Instr{
		Op:       OpStoreD,
		SrcA:     p.regAcc(a, b),
		Addr:     k.DBase + uint64(row*k.NPad+col)*uint64(k.DElemSize),
		RowPitch: uint32(k.NPad * k.DElemSize),
		RowBytes: uint16(16 * k.DElemSize),
	}
}

// lineSpan appends the distinct cache-line addresses a tile memory
// operation touches to dst and returns it. Segments of RowBytes at
// RowPitch intervals are decomposed into lineBytes-aligned lines.
func lineSpan(dst []uint64, in Instr) []uint64 {
	for r := 0; r < tileRows; r++ {
		dst = appendRowLines(dst, in.Addr+uint64(r)*uint64(in.RowPitch), in.RowBytes)
	}
	return dst
}

// appendRowLines appends the lines of the rowBytes-byte row at addr to dst,
// skipping those dst already holds, and returns it. Callers append a
// tile's rows in ascending address order and each row's lines are
// contiguous, so the collected lines ascend: a line can only repeat the
// last one collected, never land in a gap below it.
func appendRowLines(dst []uint64, addr uint64, rowBytes uint16) []uint64 {
	first := addr &^ (lineBytes - 1)
	last := (addr + uint64(rowBytes) - 1) &^ (lineBytes - 1)
	for line := first; line <= last; line += lineBytes {
		if n := len(dst); n > 0 && line <= dst[n-1] {
			continue
		}
		dst = append(dst, line)
	}
	return dst
}
