// Package conv defines convolution parameter algebra and the direct
// (sliding-filter) and transposed convolution reference implementations.
//
// Direct convolution is the paper's Fig. 1(a) baseline: the filter slides
// over the input and each output element is the dot product between the
// filter and the overlapping receptive field. The im2col lowering (the
// product of lowering.Lower's workspace and filter matrices) is validated
// against it.
package conv

import (
	"fmt"

	"duplo/internal/tensor"
)

// Params describes one convolutional layer in the shape used by Table I of
// the paper: NHWC input, KHWC filters (K filters of FHxFWxC), symmetric
// spatial padding and stride.
type Params struct {
	// Input dimensions.
	N, H, W, C int
	// Filter dimensions: K filters of size FHxFW over C channels.
	K, FH, FW int
	// Symmetric zero padding and stride (same in both spatial dims, as in
	// every layer of Table I).
	Pad, Stride int
}

// Validate reports a descriptive error for ill-formed parameters.
func (p Params) Validate() error {
	switch {
	case p.N <= 0 || p.H <= 0 || p.W <= 0 || p.C <= 0:
		return fmt.Errorf("conv: invalid input dims %dx%dx%dx%d", p.N, p.H, p.W, p.C)
	case p.K <= 0 || p.FH <= 0 || p.FW <= 0:
		return fmt.Errorf("conv: invalid filter dims %dx%dx%dx%d", p.K, p.FH, p.FW, p.C)
	case p.Pad < 0:
		return fmt.Errorf("conv: negative padding %d", p.Pad)
	case p.Stride <= 0:
		return fmt.Errorf("conv: non-positive stride %d", p.Stride)
	case p.H+2*p.Pad < p.FH || p.W+2*p.Pad < p.FW:
		return fmt.Errorf("conv: filter %dx%d larger than padded input %dx%d",
			p.FH, p.FW, p.H+2*p.Pad, p.W+2*p.Pad)
	}
	return nil
}

// OutH returns the output height: (H + 2*Pad - FH)/Stride + 1.
func (p Params) OutH() int { return (p.H+2*p.Pad-p.FH)/p.Stride + 1 }

// OutW returns the output width.
func (p Params) OutW() int { return (p.W+2*p.Pad-p.FW)/p.Stride + 1 }

// OutputShape returns the NHWC shape of the convolution output.
func (p Params) OutputShape() (n, h, w, c int) { return p.N, p.OutH(), p.OutW(), p.K }

// GEMM dimensions of the lowered convolution (Fig. 1(b)):
// the workspace matrix A is M x Kdim, the filter matrix B is Kdim x Ncol,
// and the output D is M x Ncol.

// GemmM returns the number of workspace rows: N * OutH * OutW.
func (p Params) GemmM() int { return p.N * p.OutH() * p.OutW() }

// GemmK returns the reduction depth: FH * FW * C.
func (p Params) GemmK() int { return p.FH * p.FW * p.C }

// GemmN returns the number of output channels (filters): K.
func (p Params) GemmN() int { return p.K }

// InputElems returns the number of input elements N*H*W*C.
func (p Params) InputElems() int64 {
	return int64(p.N) * int64(p.H) * int64(p.W) * int64(p.C)
}

// WorkspaceElems returns the number of elements in the explicit lowered
// workspace, GemmM * GemmK. This is the quantity whose ratio to InputElems
// drives Fig. 3 and the duplication analysis.
func (p Params) WorkspaceElems() int64 { return int64(p.GemmM()) * int64(p.GemmK()) }

// MACs returns the number of multiply-accumulate operations of the
// convolution: M * K * Ncol in GEMM terms.
func (p Params) MACs() int64 {
	return int64(p.GemmM()) * int64(p.GemmK()) * int64(p.GemmN())
}

// DuplicationFactor returns WorkspaceElems / InputElems, the average number
// of workspace copies of each input element (≥ 1 for the layers of interest;
// may be < 1 for stride > filter configurations where inputs are skipped).
func (p Params) DuplicationFactor() float64 {
	return float64(p.WorkspaceElems()) / float64(p.InputElems())
}

// UniqueWorkspaceElems counts workspace entries with distinct (batch,
// element) IDs, i.e. the number of distinct input elements actually
// referenced by the workspace. With padding, out-of-bounds taps reference the
// shared zero region and are excluded.
func (p Params) UniqueWorkspaceElems() int64 {
	// A padded-input element (iy, ix, c) of one image is referenced iff some
	// output position (oy, ox) and tap (fy, fx) hit it. Count referenced
	// in-bounds input elements of a single image, then multiply by N and C
	// (channels and images replicate the spatial pattern exactly).
	oh, ow := p.OutH(), p.OutW()
	refY := referencedAxis(p.H, p.Pad, p.FH, p.Stride, oh)
	refX := referencedAxis(p.W, p.Pad, p.FW, p.Stride, ow)
	return int64(refY) * int64(refX) * int64(p.C) * int64(p.N)
}

// referencedAxis counts in-bounds coordinates along one axis hit by at least
// one (output, tap) pair.
func referencedAxis(size, pad, f, stride, out int) int {
	count := 0
	for i := 0; i < size; i++ {
		// padded coordinate of input i is i+pad; it is hit iff there exists
		// o in [0,out) and t in [0,f) with o*stride+t == i+pad.
		hit := false
		for t := 0; t < f && !hit; t++ {
			o := i + pad - t
			if o >= 0 && o%stride == 0 && o/stride < out {
				hit = true
			}
		}
		if hit {
			count++
		}
	}
	return count
}

// String renders the layer like Table I rows.
func (p Params) String() string {
	return fmt.Sprintf("in %dx%dx%dx%d filt %dx%dx%dx%d pad %d stride %d",
		p.N, p.H, p.W, p.C, p.K, p.FH, p.FW, p.C, p.Pad, p.Stride)
}

// NewOutput allocates the output tensor for p.
func (p Params) NewOutput() *tensor.Tensor {
	n, h, w, c := p.OutputShape()
	return tensor.New(n, h, w, c)
}

// WithBatch returns a copy of p with the batch size replaced (Fig. 13 sweep).
func (p Params) WithBatch(n int) Params {
	p.N = n
	return p
}
