package conv

import (
	"fmt"

	"duplo/internal/tensor"
)

// Direct computes the convolution of input (NHWC, shape p.N x p.H x p.W x
// p.C) with filters (stored as a K x FH x FW x C tensor, i.e. filter index in
// the N slot) by the sliding-filter method of Fig. 1(a). It returns the
// N x OutH x OutW x K output.
//
// This is the reference the im2col lowering is validated against. It is
// deliberately the naive deeply-nested loop the paper describes; no blocking
// or vectorization.
func Direct(p Params, input, filters *tensor.Tensor) (*tensor.Tensor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkShapes(p, input, filters); err != nil {
		return nil, err
	}
	out := p.NewOutput()
	oh, ow := p.OutH(), p.OutW()
	for n := 0; n < p.N; n++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for k := 0; k < p.K; k++ {
					var acc float32
					for fy := 0; fy < p.FH; fy++ {
						iy := oy*p.Stride + fy - p.Pad
						if iy < 0 || iy >= p.H {
							continue
						}
						for fx := 0; fx < p.FW; fx++ {
							ix := ox*p.Stride + fx - p.Pad
							if ix < 0 || ix >= p.W {
								continue
							}
							for c := 0; c < p.C; c++ {
								acc += input.At(n, iy, ix, c) * filters.At(k, fy, fx, c)
							}
						}
					}
					out.Set(n, oy, ox, k, acc)
				}
			}
		}
	}
	return out, nil
}

func checkShapes(p Params, input, filters *tensor.Tensor) error {
	if input.N != p.N || input.H != p.H || input.W != p.W || input.C != p.C {
		return fmt.Errorf("conv: input shape %s does not match params %v", input.ShapeString(), p)
	}
	if filters.N != p.K || filters.H != p.FH || filters.W != p.FW || filters.C != p.C {
		return fmt.Errorf("conv: filter shape %s does not match params %v", filters.ShapeString(), p)
	}
	return nil
}
