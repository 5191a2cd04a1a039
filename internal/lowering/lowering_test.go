package lowering

import (
	"math/rand"
	"testing"

	"duplo/internal/conv"
	"duplo/internal/tensor"
)

var fig1Params = conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}

func fig1Input() *tensor.Tensor {
	return tensor.FromSlice(1, 4, 4, 1, []float32{
		3, 1, 4, -2,
		1, 0, -2, 1,
		4, -2, 4, 0,
		-2, 1, 0, 3,
	})
}

func fig1Filter() *tensor.Tensor {
	return tensor.FromSlice(1, 3, 3, 1, []float32{
		1, 0, 3,
		-3, -1, 2,
		0, 2, 1,
	})
}

// The workspace of Fig. 1(b): the 4x4 input expands to the exact 4x9 matrix
// printed in the paper.
func TestWorkspaceMatchesFig1(t *testing.T) {
	l, err := Lower(fig1Params, fig1Input(), fig1Filter())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float32{
		{3, 1, 4, 1, 0, -2, 4, -2, 4},
		{1, 4, -2, 0, -2, 1, -2, 4, 0},
		{1, 0, -2, 4, -2, 4, -2, 1, 0},
		{0, -2, 1, -2, 4, 0, 1, 0, 3},
	}
	if l.M != 4 || l.K != 9 {
		t.Fatalf("dims M=%d K=%d", l.M, l.K)
	}
	for r := range want {
		for c := range want[r] {
			if got := l.A.At(r, c); got != want[r][c] {
				t.Errorf("A[%d][%d] = %v, want %v", r, c, got, want[r][c])
			}
		}
	}
	// Padding columns must be zero.
	if l.KPad != 16 {
		t.Fatalf("KPad = %d", l.KPad)
	}
	for r := 0; r < l.M; r++ {
		for c := l.K; c < l.KPad; c++ {
			if l.A.Data[r*l.A.Stride+c] != 0 {
				t.Fatalf("padding A[%d][%d] nonzero", r, c)
			}
		}
	}
}

func TestFilterMatrix(t *testing.T) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 2, K: 3, FH: 2, FW: 2, Pad: 0, Stride: 1}
	filters := tensor.New(3, 2, 2, 2)
	filters.FillSequential()
	in := tensor.New(1, 4, 4, 2)
	l, err := Lower(p, in, filters)
	if err != nil {
		t.Fatal(err)
	}
	// B[(fy*FW+fx)*C+ch][k] == filters.At(k, fy, fx, ch)
	for fy := 0; fy < 2; fy++ {
		for fx := 0; fx < 2; fx++ {
			for ch := 0; ch < 2; ch++ {
				kr := (fy*2+fx)*2 + ch
				for k := 0; k < 3; k++ {
					if got := l.B.At(kr, k); got != filters.At(k, fy, fx, ch) {
						t.Fatalf("B[%d][%d] = %v, want %v", kr, k, got, filters.At(k, fy, fx, ch))
					}
				}
			}
		}
	}
	if l.NPad != 16 {
		t.Fatalf("NPad = %d", l.NPad)
	}
}

// Every workspace entry equals the input element SourceElem says it came
// from (or zero for padding halo).
func TestWorkspaceSourceConsistency(t *testing.T) {
	for _, p := range []conv.Params{
		{N: 2, H: 5, W: 5, C: 3, K: 2, FH: 3, FW: 3, Pad: 1, Stride: 1},
		{N: 1, H: 8, W: 8, C: 2, K: 2, FH: 3, FW: 3, Pad: 0, Stride: 2},
		{N: 2, H: 6, W: 6, C: 4, K: 2, FH: 5, FW: 5, Pad: 2, Stride: 2},
	} {
		in := tensor.New(p.N, p.H, p.W, p.C)
		in.FillRandom(7, 1)
		f := tensor.New(p.K, p.FH, p.FW, p.C)
		l, err := Lower(p, in, f)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < l.M; r++ {
			for c := 0; c < l.K; c++ {
				img, iy, ix, ch, ok := SourceElem(p, r, c)
				got := l.A.At(r, c)
				if !ok {
					if got != 0 {
						t.Fatalf("%v: halo entry (%d,%d) = %v, want 0", p, r, c, got)
					}
					continue
				}
				if want := in.At(img, iy, ix, ch); got != want {
					t.Fatalf("%v: A[%d][%d] = %v, want in(%d,%d,%d,%d)=%v",
						p, r, c, got, img, iy, ix, ch, want)
				}
			}
		}
	}
}

// Property: entries with equal SourceElem hold equal values — the ground
// truth for the duplicate-identification scheme.
func TestDuplicateEntriesEqual(t *testing.T) {
	p := conv.Params{N: 1, H: 6, W: 6, C: 2, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	in := tensor.New(1, 6, 6, 2)
	in.FillRandom(9, 1)
	f := tensor.New(1, 3, 3, 2)
	l, _ := Lower(p, in, f)
	type src struct{ img, iy, ix, ch int }
	seen := map[src]float32{}
	dups := 0
	for r := 0; r < l.M; r++ {
		for c := 0; c < l.K; c++ {
			img, iy, ix, ch, ok := SourceElem(p, r, c)
			if !ok {
				continue
			}
			k := src{img, iy, ix, ch}
			if v, found := seen[k]; found {
				dups++
				if v != l.A.At(r, c) {
					t.Fatalf("duplicate entries differ for %+v", k)
				}
			} else {
				seen[k] = l.A.At(r, c)
			}
		}
	}
	if dups == 0 {
		t.Fatal("expected duplicates in a stride-1 workspace")
	}
}

func TestRowColRoundTrips(t *testing.T) {
	p := conv.Params{N: 3, H: 8, W: 6, C: 5, K: 2, FH: 3, FW: 2, Pad: 1, Stride: 2}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		row := rng.Intn(p.GemmM())
		img, oy, ox := RowToOutput(p, row)
		if back := img*(p.OutH()*p.OutW()) + oy*p.OutW() + ox; back != row {
			t.Fatalf("row %d -> (%d,%d,%d) -> %d", row, img, oy, ox, back)
		}
		col := rng.Intn(p.GemmK())
		fy, fx, ch := ColToTap(p, col)
		if back := (fy*p.FW+fx)*p.C + ch; back != col {
			t.Fatalf("col %d -> (%d,%d,%d) -> %d", col, fy, fx, ch, back)
		}
	}
}

func TestLayoutAddressing(t *testing.T) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	l := NewLayout(p, 0x1000, 2)
	if l.KPad != 16 || l.M != 4 || l.K != 9 {
		t.Fatalf("layout %+v", l)
	}
	if l.Bytes() != 4*16*2 {
		t.Fatalf("bytes %d", l.Bytes())
	}
	addr := l.Addr(2, 5)
	if addr != 0x1000+uint64(2*16+5)*2 {
		t.Fatalf("addr %#x", addr)
	}
	r, c, ok := l.Coords(addr)
	if !ok || r != 2 || c != 5 {
		t.Fatalf("coords (%d,%d,%v)", r, c, ok)
	}
	if _, _, ok := l.Coords(0x0FFF); ok {
		t.Error("address below base should be outside")
	}
	if _, _, ok := l.Coords(l.Base + l.Bytes()); ok {
		t.Error("address at end should be outside")
	}
	if _, _, ok := l.Coords(addr + 1); ok {
		t.Error("unaligned address should fail")
	}
	if !l.Contains(l.Base) || l.Contains(l.Base+l.Bytes()) {
		t.Error("Contains boundary conditions")
	}
}

func TestRoundUp(t *testing.T) {
	cases := [][3]int{{0, 16, 0}, {1, 16, 16}, {16, 16, 16}, {17, 16, 32}, {147, 16, 160}}
	for _, c := range cases {
		if got := RoundUp(c[0], c[1]); got != c[2] {
			t.Errorf("RoundUp(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestFillRowMatchesLower(t *testing.T) {
	p := conv.Params{N: 2, H: 5, W: 4, C: 3, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 2}
	in := tensor.New(p.N, p.H, p.W, p.C)
	in.FillRandom(13, 1)
	f := tensor.New(1, 3, 3, 3)
	l, _ := Lower(p, in, f)
	buf := make([]float32, p.GemmK())
	for r := 0; r < l.M; r++ {
		img, oy, ox := RowToOutput(p, r)
		FillRow(p, in, img, oy, ox, buf)
		for c, v := range buf {
			if l.A.At(r, c) != v {
				t.Fatalf("FillRow mismatch at row %d col %d", r, c)
			}
		}
	}
}

var testLayers = []conv.Params{
	{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1},   // Fig. 1
	{N: 2, H: 8, W: 8, C: 4, K: 8, FH: 3, FW: 3, Pad: 1, Stride: 1},   // ResNet-like
	{N: 1, H: 9, W: 9, C: 3, K: 4, FH: 3, FW: 3, Pad: 0, Stride: 2},   // strided
	{N: 2, H: 8, W: 8, C: 2, K: 3, FH: 5, FW: 5, Pad: 2, Stride: 2},   // GAN-like
	{N: 1, H: 12, W: 10, C: 5, K: 7, FH: 7, FW: 7, Pad: 3, Stride: 2}, // ResNet C1-like
	{N: 1, H: 6, W: 6, C: 16, K: 16, FH: 1, FW: 1, Pad: 0, Stride: 1}, // pointwise
}

// loweredProduct lowers p and multiplies the workspace A by the filter
// matrix B in a naive triple loop over the padded depth KPad, as a
// tensor-core kernel does, so nonzero padding would show. Workspace rows
// are ordered (n, oy, ox) and B's columns are the K filters, so row r of
// the M x N product is output position r of the NHWC output.
func loweredProduct(t *testing.T, p conv.Params, in, f *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	l, err := Lower(p, in, f)
	if err != nil {
		t.Fatal(err)
	}
	out := p.NewOutput()
	for r := 0; r < l.M; r++ {
		for n := 0; n < l.N; n++ {
			var acc float32
			for k := 0; k < l.KPad; k++ {
				acc += l.A.At(r, k) * l.B.At(k, n)
			}
			out.Data[r*l.N+n] = acc
		}
	}
	return out
}

// The lowered product must equal direct convolution up to fp32
// reassociation error: the workspace is a correct im2col.
func TestLoweredProductMatchesDirect(t *testing.T) {
	for _, p := range testLayers {
		in := tensor.New(p.N, p.H, p.W, p.C)
		in.FillRandom(41, 1)
		f := tensor.New(p.K, p.FH, p.FW, p.C)
		f.FillRandom(42, 0.5)
		want, err := conv.Direct(p, in, f)
		if err != nil {
			t.Fatal(err)
		}
		if d := loweredProduct(t, p, in, f).RelErr(want); d > 1e-4 {
			t.Errorf("%v: lowered product rel err %v", p, d)
		}
	}
}

// Transposed convolutions lowered through their zero-dilated direct
// equivalent must match the scatter reference — this is how GAN's TC
// layers run on the simulated tensor cores.
func TestTransposedViaGemm(t *testing.T) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 3, K: 2, FH: 5, FW: 5, Pad: 2, Stride: 2}
	in := tensor.New(p.N, p.H, p.W, p.C)
	in.FillRandom(61, 1)
	f := tensor.New(p.K, p.FH, p.FW, p.C)
	f.FillRandom(62, 0.5)
	want, err := conv.Transposed(p, in, f)
	if err != nil {
		t.Fatal(err)
	}
	dp, dil, flip, err := conv.ToDirect(p, in, f)
	if err != nil {
		t.Fatal(err)
	}
	got := loweredProduct(t, dp, dil, flip)
	if !got.SameShape(want) {
		t.Fatalf("shape %s vs %s", got.ShapeString(), want.ShapeString())
	}
	if d := got.RelErr(want); d > 1e-4 {
		t.Errorf("transposed-via-GEMM rel err %v", d)
	}
}
