package conv

import (
	"math"
	"testing"

	"duplo/internal/tensor"
)

func TestOutputDims(t *testing.T) {
	cases := []struct {
		p      Params
		oh, ow int
	}{
		// Fig. 1: 4x4 input, 3x3 filter, no pad, stride 1 -> 2x2.
		{Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}, 2, 2},
		// ResNet C1: 224x224, 7x7, pad 3, stride 2 -> 112x112.
		{Params{N: 8, H: 224, W: 224, C: 3, K: 64, FH: 7, FW: 7, Pad: 3, Stride: 2}, 112, 112},
		// ResNet C2: 56x56, 3x3, pad 1, stride 1 -> 56x56.
		{Params{N: 8, H: 56, W: 56, C: 64, K: 64, FH: 3, FW: 3, Pad: 1, Stride: 1}, 56, 56},
		// ResNet C3: 56x56, 3x3, pad 0, stride 2 -> 27x27.
		{Params{N: 8, H: 56, W: 56, C: 64, K: 128, FH: 3, FW: 3, Pad: 0, Stride: 2}, 27, 27},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err != nil {
			t.Fatalf("%v: %v", c.p, err)
		}
		if c.p.OutH() != c.oh || c.p.OutW() != c.ow {
			t.Errorf("%v: out %dx%d, want %dx%d", c.p, c.p.OutH(), c.p.OutW(), c.oh, c.ow)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Params{
		{N: 0, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Stride: 1},
		{N: 1, H: 4, W: 4, C: 1, K: 0, FH: 3, FW: 3, Stride: 1},
		{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Stride: 0},
		{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: -1, Stride: 1},
		{N: 1, H: 2, W: 2, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("expected error for %+v", p)
		}
	}
}

// The worked example of Fig. 1(a): 4x4 input, 3x3 filter, output [[8,7],[-5,8]].
func TestDirectPaperExample(t *testing.T) {
	p := Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	in := tensor.FromSlice(1, 4, 4, 1, []float32{
		3, 1, 4, -2,
		1, 0, -2, 1,
		4, -2, 4, 0,
		-2, 1, 0, 3,
	})
	f := tensor.FromSlice(1, 3, 3, 1, []float32{
		1, 0, 3,
		-3, -1, 2,
		0, 2, 1,
	})
	out, err := Direct(p, in, f)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{8, 7, -5, 8}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %v, want %v (full: %v)", i, out.Data[i], w, out.Data)
		}
	}
}

func TestDirectIdentityFilter(t *testing.T) {
	// A 1x1 filter with weight 1 on channel 0 copies channel 0.
	p := Params{N: 2, H: 3, W: 3, C: 2, K: 1, FH: 1, FW: 1, Pad: 0, Stride: 1}
	in := tensor.New(2, 3, 3, 2)
	in.FillRandom(5, 1)
	f := tensor.New(1, 1, 1, 2)
	f.Set(0, 0, 0, 0, 1)
	out, err := Direct(p, in, f)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				if out.At(n, y, x, 0) != in.At(n, y, x, 0) {
					t.Fatalf("identity conv mismatch at (%d,%d,%d)", n, y, x)
				}
			}
		}
	}
}

func TestDirectPaddingZeros(t *testing.T) {
	// All-ones input and filter with pad: corner outputs see fewer taps.
	p := Params{N: 1, H: 3, W: 3, C: 1, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 1}
	in := tensor.New(1, 3, 3, 1)
	in.Fill(1)
	f := tensor.New(1, 3, 3, 1)
	f.Fill(1)
	out, err := Direct(p, in, f)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 1, 1, 0) != 9 {
		t.Errorf("center = %v, want 9", out.At(0, 1, 1, 0))
	}
	if out.At(0, 0, 0, 0) != 4 {
		t.Errorf("corner = %v, want 4", out.At(0, 0, 0, 0))
	}
	if out.At(0, 0, 1, 0) != 6 {
		t.Errorf("edge = %v, want 6", out.At(0, 0, 1, 0))
	}
}

func TestDirectShapeMismatch(t *testing.T) {
	p := Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Stride: 1}
	in := tensor.New(1, 5, 4, 1)
	f := tensor.New(1, 3, 3, 1)
	if _, err := Direct(p, in, f); err == nil {
		t.Error("expected input shape error")
	}
	in = tensor.New(1, 4, 4, 1)
	f = tensor.New(2, 3, 3, 1)
	if _, err := Direct(p, in, f); err == nil {
		t.Error("expected filter shape error")
	}
}

func TestGemmDims(t *testing.T) {
	p := Params{N: 8, H: 56, W: 56, C: 64, K: 128, FH: 3, FW: 3, Pad: 1, Stride: 1}
	if p.GemmM() != 8*56*56 {
		t.Errorf("M = %d", p.GemmM())
	}
	if p.GemmK() != 3*3*64 {
		t.Errorf("K = %d", p.GemmK())
	}
	if p.GemmN() != 128 {
		t.Errorf("N = %d", p.GemmN())
	}
	if p.MACs() != int64(p.GemmM())*int64(p.GemmK())*int64(p.GemmN()) {
		t.Error("MACs mismatch")
	}
}

func TestDuplicationFactor(t *testing.T) {
	// Fig. 1(b): 4x4 input -> 4x9 workspace: 36/16 = 2.25x.
	p := Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	if got := p.DuplicationFactor(); got != 2.25 {
		t.Errorf("duplication = %v, want 2.25", got)
	}
	// 3x3 stride-1 pad-1 same conv on HxW: workspace = H*W*9, input H*W -> 9x.
	p2 := Params{N: 1, H: 56, W: 56, C: 64, K: 64, FH: 3, FW: 3, Pad: 1, Stride: 1}
	if got := p2.DuplicationFactor(); got != 9 {
		t.Errorf("duplication = %v, want 9", got)
	}
}

func TestUniqueWorkspaceElems(t *testing.T) {
	// Fig. 6: every one of the 16 input elements is referenced.
	p := Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	if got := p.UniqueWorkspaceElems(); got != 16 {
		t.Errorf("unique = %d, want 16", got)
	}
	// Stride 3 with 2x2 filter on 7x7: outputs anchor at 0 and 3, covering
	// coordinates {0,1,3,4} per axis -> 4x4 referenced.
	p2 := Params{N: 1, H: 7, W: 7, C: 1, K: 1, FH: 2, FW: 2, Pad: 0, Stride: 3}
	if got := p2.UniqueWorkspaceElems(); got != 16 {
		t.Errorf("unique = %d, want 16", got)
	}
	// Channels and batch multiply.
	p3 := Params{N: 2, H: 4, W: 4, C: 3, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	if got := p3.UniqueWorkspaceElems(); got != 16*2*3 {
		t.Errorf("unique = %d, want 96", got)
	}
}

func TestTransposedShapes(t *testing.T) {
	// GAN TC1: 8x4x4x512 -> 8x8x8x256 with 256x5x5x512, pad 2, stride 2.
	p := Params{N: 1, H: 4, W: 4, C: 4, K: 3, FH: 5, FW: 5, Pad: 2, Stride: 2}
	in := tensor.New(1, 4, 4, 4)
	in.FillRandom(11, 1)
	f := tensor.New(3, 5, 5, 4)
	f.FillRandom(12, 1)
	out, err := Transposed(p, in, f)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 8 || out.W != 8 || out.C != 3 {
		t.Fatalf("transposed out shape %s", out.ShapeString())
	}
}

// Transposed convolution must equal direct convolution on the zero-dilated
// input with the flipped filter (the paper's lowering for GAN layers). The
// direct parameters are TransposedEquivalentParams, which sizes GAN's TC
// layers in the simulator.
func TestTransposedEqualsDilatedDirect(t *testing.T) {
	for _, p := range []Params{
		{N: 2, H: 4, W: 4, C: 3, K: 2, FH: 5, FW: 5, Pad: 2, Stride: 2},
		{N: 1, H: 3, W: 3, C: 2, K: 2, FH: 3, FW: 3, Pad: 1, Stride: 2},
		{N: 1, H: 5, W: 5, C: 1, K: 1, FH: 3, FW: 3, Pad: 2, Stride: 1},
	} {
		in := tensor.New(p.N, p.H, p.W, p.C)
		in.FillRandom(21, 1)
		f := tensor.New(p.K, p.FH, p.FW, p.C)
		f.FillRandom(22, 1)
		want, err := Transposed(p, in, f)
		if err != nil {
			t.Fatal(err)
		}
		dp, dil, flip, err := ToDirect(p, in, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Direct(dp, dil, flip)
		if err != nil {
			t.Fatal(err)
		}
		if !got.SameShape(want) {
			t.Fatalf("shape %s vs %s", got.ShapeString(), want.ShapeString())
		}
		if d := got.MaxAbsDiff(want); d > 1e-4 {
			t.Errorf("%+v: transposed/dilated mismatch %v", p, d)
		}
	}
}

// Linearity property: conv(a*x) == a*conv(x).
func TestDirectLinearity(t *testing.T) {
	p := Params{N: 1, H: 6, W: 6, C: 3, K: 2, FH: 3, FW: 3, Pad: 1, Stride: 1}
	in := tensor.New(1, 6, 6, 3)
	in.FillRandom(31, 1)
	f := tensor.New(2, 3, 3, 3)
	f.FillRandom(32, 1)
	out1, _ := Direct(p, in, f)
	scaled := in.Clone()
	for i := range scaled.Data {
		scaled.Data[i] *= 2
	}
	out2, _ := Direct(p, scaled, f)
	for i := range out1.Data {
		if math.Abs(float64(out2.Data[i]-2*out1.Data[i])) > 1e-3 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, out2.Data[i], 2*out1.Data[i])
		}
	}
}

func TestWithBatch(t *testing.T) {
	p := Params{N: 8, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Stride: 1}
	q := p.WithBatch(32)
	if q.N != 32 || p.N != 8 {
		t.Fatal("WithBatch must copy")
	}
}
