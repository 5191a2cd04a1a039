package conv

import (
	"fmt"

	"duplo/internal/tensor"
)

// Transposed computes a transposed ("TC" in Table I) convolution, the
// upsampling operation of GAN generator layers [31]. Following the paper
// (§II-A), the GPU implements it by inserting zeros into the input and then
// performing an ordinary convolution; ToDirect exposes exactly that lowering,
// and Transposed itself is an independent scatter-style reference used to
// validate it.
//
// Shape convention (matching Table I): the input is N x H x W x C, filters
// are K x FH x FW x C (C input channels -> K output channels), and the
// output spatial size is H*Stride + FH - 1 - 2*Pad — the size produced by
// zero-dilating the input to H*Stride and convolving with stride 1 and
// padding FH-1-Pad. For every GAN layer in Table I (5x5 filters, pad 2,
// stride 2) this reduces to exactly H*Stride, doubling the spatial size.
func Transposed(p Params, input, filters *tensor.Tensor) (*tensor.Tensor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkShapes(p, input, filters); err != nil {
		return nil, err
	}
	oh := p.H*p.Stride + p.FH - 1 - 2*p.Pad
	ow := p.W*p.Stride + p.FW - 1 - 2*p.Pad
	out := tensor.New(p.N, oh, ow, p.K)
	for n := 0; n < p.N; n++ {
		for iy := 0; iy < p.H; iy++ {
			for ix := 0; ix < p.W; ix++ {
				for fy := 0; fy < p.FH; fy++ {
					oy := iy*p.Stride + fy - p.Pad
					if oy < 0 || oy >= oh {
						continue
					}
					for fx := 0; fx < p.FW; fx++ {
						ox := ix*p.Stride + fx - p.Pad
						if ox < 0 || ox >= ow {
							continue
						}
						for k := 0; k < p.K; k++ {
							var acc float32
							for c := 0; c < p.C; c++ {
								acc += input.At(n, iy, ix, c) * filters.At(k, fy, fx, c)
							}
							out.Data[out.Index(n, oy, ox, k)] += acc
						}
					}
				}
			}
		}
	}
	return out, nil
}

// ToDirect lowers a transposed convolution to an equivalent direct
// convolution: the input is zero-dilated by the stride (each element lands at
// coordinate i*Stride) and the filter is spatially flipped; the equivalent
// direct convolution then uses stride 1 and padding FH-1-Pad. This is the
// "inserting zeros before performing a convolution" formulation of §II-A; its
// parameters are TransposedEquivalentParams, the shape the simulator runs for
// GAN's TC layers.
func ToDirect(p Params, input, filters *tensor.Tensor) (Params, *tensor.Tensor, *tensor.Tensor, error) {
	if err := p.Validate(); err != nil {
		return Params{}, nil, nil, err
	}
	if err := checkShapes(p, input, filters); err != nil {
		return Params{}, nil, nil, err
	}
	if p.Pad > p.FH-1 || p.Pad > p.FW-1 {
		return Params{}, nil, nil, fmt.Errorf("conv: transposed pad %d exceeds filter-1", p.Pad)
	}
	dil := tensor.New(p.N, p.H*p.Stride, p.W*p.Stride, p.C)
	for n := 0; n < p.N; n++ {
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				for c := 0; c < p.C; c++ {
					dil.Set(n, y*p.Stride, x*p.Stride, c, input.At(n, y, x, c))
				}
			}
		}
	}
	flip := tensor.New(p.K, p.FH, p.FW, p.C)
	for k := 0; k < p.K; k++ {
		for fy := 0; fy < p.FH; fy++ {
			for fx := 0; fx < p.FW; fx++ {
				for c := 0; c < p.C; c++ {
					flip.Set(k, fy, fx, c, filters.At(k, p.FH-1-fy, p.FW-1-fx, c))
				}
			}
		}
	}
	return TransposedEquivalentParams(p), dil, flip, nil
}

// TransposedEquivalentParams returns only the lowered direct-convolution
// parameters (no tensors), used by the timing simulator and analytic models
// to size GAN's TC layers without materializing data.
func TransposedEquivalentParams(p Params) Params {
	return Params{
		N: p.N, H: p.H * p.Stride, W: p.W * p.Stride, C: p.C,
		K: p.K, FH: p.FH, FW: p.FW,
		Pad: p.FH - 1 - p.Pad, Stride: 1,
	}
}
