package sim

import (
	"fmt"
	"sync"

	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// SharedVariant selects which GEMM operands a CTA stages in shared memory —
// the §II-C study. The paper's baseline is SharedCOnly: with a 96KB shared
// memory, the 32KB-per-CTA footprint lets three CTAs run concurrently,
// providing the TLP the other variants lack; A and B are then fetched from
// global memory by wmma.load instructions, which is the stream Duplo
// filters.
type SharedVariant int

const (
	// SharedCOnly: only the C accumulator tile in shared memory
	// (32KB/CTA, up to 3 CTAs). The paper's baseline.
	SharedCOnly SharedVariant = iota
	// SharedAC: A and C staged (48KB/CTA, up to 2 CTAs).
	SharedAC
	// SharedABC: everything staged (64KB/CTA, 1 CTA, worst TLP).
	SharedABC
)

// String names the variant.
func (v SharedVariant) String() string {
	switch v {
	case SharedCOnly:
		return "C-only"
	case SharedAC:
		return "A+C"
	case SharedABC:
		return "A+B+C"
	}
	return "?"
}

// sharedBytesPerCTA returns the §II-C footprints: 16KB each for the
// half-precision A and B tiles, 32KB for the fp32 C tile.
func (v SharedVariant) sharedBytesPerCTA() int {
	switch v {
	case SharedABC:
		return 64 << 10
	case SharedAC:
		return 48 << 10
	default:
		return 32 << 10
	}
}

// sharedMemoryKB is the configurable Volta shared-memory capacity (§II-C).
const sharedMemoryKB = 96

// Device memory map: the workspace (A), filter matrix (B) and output (D)
// regions are placed at fixed, well-separated bases.
const (
	aBase = 0x1_0000_0000
	bBase = 0x5_0000_0000
	dBase = 0x9_0000_0000
)

// Kernel describes one GEMM launch: D = A x B with A an M x K matrix of
// half-precision data (row pitch KPad), B K x N (row pitch NPad), D M x N
// fp32 (row pitch NPad). When the A operand is a lowered convolution
// workspace, Conv and Layout carry the duplication structure for Duplo.
type Kernel struct {
	Name                string
	M, N, K             int
	MPad, NPad, KPad    int
	ElemSize            int // A/B element size (2 = half)
	DElemSize           int // D element size (4 = fp32)
	ABase, BBase, DBase uint64
	Variant             SharedVariant

	// Conv is non-nil when A is the lowered workspace of a convolution;
	// Layout then describes the workspace region (programs the detection
	// unit at launch).
	Conv   *conv.Params
	Layout lowering.Layout

	// progs caches the canonical warp programs shared read-only across
	// every placeCTA call (see program). It is built on the first
	// program call, under progsOnce, so a kernel that is only looked up
	// — a memo or store hit — never pays for building it.
	progsOnce sync.Once
	progs     *progCache
}

// progCache holds one immutable canonical program per warp shape
// (rt row tiles x ct column tiles); index [0][*] and [*][0] stay nil.
type progCache [warpTileM + 1][warpTileN + 1]*warpProgram

// initProgCache builds the canonical program for every possible warp
// shape. Kernels are immutable during simulation, so the cache can be
// shared read-only across CTAs, SMs and concurrent Runs.
func (k *Kernel) initProgCache() {
	var c progCache
	for rt := 1; rt <= warpTileM; rt++ {
		for ct := 1; ct <= warpTileN; ct++ {
			c[rt][ct] = newWarpProgram(k, canonicalWork(rt, ct))
		}
	}
	k.progs = &c
}

// program returns the canonical warp program for an rt x ct warp shape —
// tile origins relative to the warp's first row/column, relocated at decode
// time by the warpCtx offsets (sm.go). Shapes with no tiles yield an empty
// program. Safe for concurrent use: concurrent Runs share one *Kernel, and
// the first call builds the cache for all of them.
func (k *Kernel) program(rt, ct int) *warpProgram {
	if rt < 1 || rt > warpTileM || ct < 1 || ct > warpTileN {
		return newWarpProgram(k, canonicalWork(rt, ct))
	}
	k.progsOnce.Do(k.initProgCache)
	return k.progs[rt][ct]
}

// canonicalWork builds the relative-origin work of an rt x ct warp shape:
// row tiles at 0, 16, ... and column tiles likewise.
func canonicalWork(rt, ct int) warpWork {
	rows := make([]int, rt)
	for i := range rows {
		rows[i] = i * 16
	}
	cols := make([]int, ct)
	for i := range cols {
		cols[i] = i * 16
	}
	return warpWork{rowTiles: rows, colTiles: cols}
}

// NewConvKernel builds the tensor-core GEMM kernel for a lowered
// convolution: M = N*OutH*OutW, K = FH*FW*C, N = filters (§II-B, Fig. 4).
func NewConvKernel(name string, p conv.Params) (*Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	layout := lowering.NewLayout(p, aBase, 2)
	return &Kernel{
		Name:      name,
		M:         p.GemmM(),
		N:         p.GemmN(),
		K:         p.GemmK(),
		MPad:      lowering.RoundUp(p.GemmM(), lowering.Tile),
		NPad:      lowering.RoundUp(p.GemmN(), lowering.Tile),
		KPad:      layout.KPad,
		ElemSize:  2,
		DElemSize: 4,
		ABase:     aBase,
		BBase:     bBase,
		DBase:     dBase,
		Variant:   SharedCOnly,
		Conv:      &p,
		Layout:    layout,
	}, nil
}

// NewGemmKernel builds a plain GEMM launch with no duplication structure
// (e.g. the weight-gradient GEMM of a training pass); Duplo bypasses every
// load because no workspace region is programmed.
func NewGemmKernel(name string, m, n, kdim int) (*Kernel, error) {
	if m <= 0 || n <= 0 || kdim <= 0 {
		return nil, fmt.Errorf("sim: invalid GEMM dims %dx%dx%d", m, n, kdim)
	}
	return &Kernel{
		Name:      name,
		M:         m,
		N:         n,
		K:         kdim,
		MPad:      lowering.RoundUp(m, lowering.Tile),
		NPad:      lowering.RoundUp(n, lowering.Tile),
		KPad:      lowering.RoundUp(kdim, lowering.Tile),
		ElemSize:  2,
		DElemSize: 4,
		ABase:     aBase,
		BBase:     bBase,
		DBase:     dBase,
		Variant:   SharedCOnly,
	}, nil
}

// CTA tiling of the baseline kernel (cudaTensorCoreGemm decomposition): a
// CTA of 8 warps computes a 128x128 D tile; each warp owns a 32x64 region
// organized as 2x4 tiles of 16x16, warps arranged 4 rows x 2 columns.
const (
	warpsPerCTA  = 8
	warpTileM    = 2 // 16x16 tiles per warp, M direction
	warpTileN    = 4 // 16x16 tiles per warp, N direction
	ctaWarpRows  = 4
	ctaWarpCols  = 2
	ctaTileMElem = ctaWarpRows * warpTileM * 16 // 128
	ctaTileNElem = ctaWarpCols * warpTileN * 16 // 128
)

// GridCTAs returns the CTA grid size (N-major like CUDA blockIdx.x, then M).
func (k *Kernel) GridCTAs() (gridM, gridN int) {
	gridM = (k.MPad + ctaTileMElem - 1) / ctaTileMElem
	gridN = (k.NPad + ctaTileNElem - 1) / ctaTileNElem
	return gridM, gridN
}

// TotalCTAs returns the full grid size.
func (k *Kernel) TotalCTAs() int {
	gm, gn := k.GridCTAs()
	return gm * gn
}

// KTiles returns the number of 16-deep reduction steps.
func (k *Kernel) KTiles() int { return k.KPad / 16 }

// CTAsPerSM returns how many CTAs fit concurrently on one SM, limited by
// shared memory (§II-C), the 8-warps-per-CTA occupancy, and MaxCTAsPerSM.
func (k *Kernel) CTAsPerSM(cfg Config) int {
	bySmem := (sharedMemoryKB << 10) / k.Variant.sharedBytesPerCTA()
	byWarp := cfg.MaxWarpsPerSM / warpsPerCTA
	n := bySmem
	if byWarp < n {
		n = byWarp
	}
	if cfg.MaxCTAsPerSM < n {
		n = cfg.MaxCTAsPerSM
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ctaCoords returns the D-tile element origin of CTA index i (N-major
// ordering: consecutive CTAs sweep the N dimension first, which is CUDA's
// blockIdx.x-fastest convention).
func (k *Kernel) ctaCoords(i int) (mBase, nBase int) {
	_, gn := k.GridCTAs()
	return (i / gn) * ctaTileMElem, (i % gn) * ctaTileNElem
}

// warpWork describes the tiles a warp computes: absolute element origins of
// its row tiles (M) and column tiles (N). Edge warps own fewer tiles.
type warpWork struct {
	rowTiles []int // element row origins, each a 16-row A/D stripe
	colTiles []int // element col origins, each a 16-col B/D stripe
}

// warpAssignments lists per-warp work for CTA index cta. Warps with no
// in-range tiles get empty work (they exit immediately).
func (k *Kernel) warpAssignments(cta int) [warpsPerCTA]warpWork {
	mBase, nBase := k.ctaCoords(cta)
	var out [warpsPerCTA]warpWork
	for w := 0; w < warpsPerCTA; w++ {
		wr := w % ctaWarpRows
		wc := w / ctaWarpRows
		var rows, cols []int
		for t := 0; t < warpTileM; t++ {
			r := mBase + (wr*warpTileM+t)*16
			if r < k.MPad {
				rows = append(rows, r)
			}
		}
		for t := 0; t < warpTileN; t++ {
			c := nBase + (wc*warpTileN+t)*16
			if c < k.NPad {
				cols = append(cols, c)
			}
		}
		if len(rows) > 0 && len(cols) > 0 {
			out[w] = warpWork{rowTiles: rows, colTiles: cols}
		}
	}
	return out
}

// warpShape returns the tile shape of warp w of CTA cta — rt row tiles by
// ct column tiles — plus the element origin of its first tile. The in-range
// tiles of a warp always form a contiguous prefix (MPad/NPad are multiples
// of 16 and tile origins ascend by 16), so (rt, ct) plus the origin fully
// determines the work warpAssignments would list: rowTiles[i] =
// firstRow + 16i, colTiles[j] = firstCol + 16j.
func (k *Kernel) warpShape(cta, w int) (rt, ct, firstRow, firstCol int) {
	mBase, nBase := k.ctaCoords(cta)
	wr := w % ctaWarpRows
	wc := w / ctaWarpRows
	firstRow = mBase + wr*warpTileM*16
	firstCol = nBase + wc*warpTileN*16
	rt = tilePrefix(firstRow, k.MPad, warpTileM)
	ct = tilePrefix(firstCol, k.NPad, warpTileN)
	return rt, ct, firstRow, firstCol
}

// tilePrefix counts how many of a warp's up-to-max tiles starting at first
// fall inside the padded extent.
func tilePrefix(first, pad, max int) int {
	if first >= pad {
		return 0
	}
	if n := (pad - first) / 16; n < max {
		return n
	}
	return max
}

// warpOffsets returns the address relocations that map the canonical
// rt x ct program onto a warp whose first tile sits at (firstRow,
// firstCol): canonical A loads shift by firstRow rows of the workspace,
// B loads by firstCol columns of the filter matrix, D stores by both.
func (k *Kernel) warpOffsets(firstRow, firstCol int) (aOff, bOff, dOff uint64) {
	aOff = uint64(firstRow*k.KPad) * uint64(k.ElemSize)
	bOff = uint64(firstCol) * uint64(k.ElemSize)
	dOff = uint64(firstRow*k.NPad+firstCol) * uint64(k.DElemSize)
	return aOff, bOff, dOff
}
