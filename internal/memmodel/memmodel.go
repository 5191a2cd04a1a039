// Package memmodel computes the memory footprint of each convolution method
// — the quantities behind Fig. 3 of the paper (relative memory usage over
// direct convolution) and the implicit-GEMM comparison of §II-C.
//
// Footprints are exact elementwise accounting (no simulation): the sizes of
// every buffer a method materializes beyond the input, filter and output
// tensors that all methods share.
package memmodel

import (
	"math/bits"

	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// Method enumerates the compared convolution implementations of Fig. 2/3.
type Method int

const (
	Direct Method = iota
	GEMM          // explicit lowering, CUDA cores
	Winograd
	FFT
	GEMMTensorCore     // explicit lowering, tensor cores (half precision)
	WinogradTensorCore // Winograd with tensor-core element products
	ImplicitGEMM       // lazy lowering through shared memory (§II-C)
)

// String names the method like the figure legends.
func (m Method) String() string {
	switch m {
	case Direct:
		return "Direct"
	case GEMM:
		return "GEMM"
	case Winograd:
		return "Winograd"
	case FFT:
		return "FFT"
	case GEMMTensorCore:
		return "GEMM_TC"
	case WinogradTensorCore:
		return "Winograd_TC"
	case ImplicitGEMM:
		return "ImplicitGEMM"
	}
	return "?"
}

// Methods returns the Fig. 2/3 presentation order.
func Methods() []Method {
	return []Method{GEMM, Winograd, FFT, GEMMTensorCore, WinogradTensorCore}
}

// Applicable reports whether the method supports the layer (§II-A: Winograd
// F(2x2, 3x3) needs 3x3 unit-stride filters; FFT needs unit stride).
// Inapplicable combinations are the missing bars of Fig. 2/3.
func Applicable(m Method, p conv.Params) bool {
	switch m {
	case Winograd, WinogradTensorCore:
		return p.FH == 3 && p.FW == 3 && p.Stride == 1
	case FFT:
		return p.Stride == 1
	default:
		return true
	}
}

// winogradTransformElems returns the number of Winograd-domain elements
// F(2x2, 3x3) materializes: the transformed filters U (16 per
// filter-channel), input tiles V (16 per tile-channel) and products M (16
// per tile-filter), one tile per 2x2 output block.
func winogradTransformElems(p conv.Params) int64 {
	tiles := int64((p.OutH()+1)/2) * int64((p.OutW()+1)/2) * int64(p.N)
	u := int64(p.K) * int64(p.C) * 16
	v := int64(p.C) * tiles * 16
	m := int64(p.K) * tiles * 16
	return u + v + m
}

// FFTGridSize returns the power-of-two FFT grid edge for the layer: the
// padded input must fit without circular wrap-around of the correlation
// window.
func FFTGridSize(p conv.Params) int {
	return nextPow2(max(p.H+2*p.Pad, p.W+2*p.Pad))
}

// fftTransformElems returns the number of Fourier-domain elements the FFT
// method materializes (padded input planes, filter planes, and one
// accumulator per output channel), in real-scalar units (x2 for complex).
// Padding small filters up to full power-of-two image grids is where
// Fig. 3's 53.5x FFT average comes from.
func fftTransformElems(p conv.Params) int64 {
	l := int64(FFTGridSize(p))
	planes := l * l
	inputG := int64(p.N) * int64(p.C) * planes
	filterG := int64(p.K) * int64(p.C) * planes
	outG := int64(p.N) * int64(p.K) * planes
	return 2 * (inputG + filterG + outG)
}

// nextPow2 returns the smallest power of two >= x (and >= 1).
func nextPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// elemSize returns the working element size in bytes: tensor-core methods
// hold half-precision operands, everything else fp32.
func elemSize(m Method) int64 {
	switch m {
	case GEMMTensorCore, WinogradTensorCore, ImplicitGEMM:
		return 2
	default:
		return 4
	}
}

// baseBytes is the footprint every method shares: input, filters, output.
func baseBytes(p conv.Params, es int64) int64 {
	in := p.InputElems()
	f := int64(p.K) * int64(p.FH) * int64(p.FW) * int64(p.C)
	out := int64(p.N) * int64(p.OutH()) * int64(p.OutW()) * int64(p.K)
	return (in + f + out) * es
}

// Bytes returns the total device-memory footprint of the method on layer p.
// It returns 0 for inapplicable combinations.
func Bytes(m Method, p conv.Params) int64 {
	if !Applicable(m, p) {
		return 0
	}
	es := elemSize(m)
	b := baseBytes(p, es)
	switch m {
	case Direct:
		return b
	case GEMM, GEMMTensorCore:
		// The explicit workspace (K-padded for the tensor-core variant).
		kd := int64(p.GemmK())
		if m == GEMMTensorCore {
			kd = int64(lowering.RoundUp(p.GemmK(), lowering.Tile))
		}
		return b + int64(p.GemmM())*kd*es
	case ImplicitGEMM:
		// Lazily lowered: only a per-CTA shared-memory staging buffer per
		// SM, negligible in global memory (§II-C: "saves the global memory
		// space"). Global footprint equals direct.
		return b
	case Winograd, WinogradTensorCore:
		return b + winogradTransformElems(p)*es
	case FFT:
		return b + fftTransformElems(p)*4 // complex stored as fp32 pairs
	}
	return 0
}

// RelativeUsage returns Bytes(m) / Bytes(Direct) — the Fig. 3 bar — or 0
// when inapplicable.
func RelativeUsage(m Method, p conv.Params) float64 {
	if !Applicable(m, p) {
		return 0
	}
	return float64(Bytes(m, p)) / float64(Bytes(Direct, p))
}

// ImplicitVsExplicitRatio returns explicit GEMM_TC bytes over implicit GEMM
// bytes — the §II-C claim that the implicit method uses ~8.8x less global
// memory.
func ImplicitVsExplicitRatio(p conv.Params) float64 {
	return float64(Bytes(GEMMTensorCore, p)) / float64(Bytes(ImplicitGEMM, p))
}
