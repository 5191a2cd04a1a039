package tensor

import "testing"

func TestIndexLayoutNHWC(t *testing.T) {
	tt := New(2, 3, 4, 5)
	tt.FillSequential()
	// NHWC: channel is unit stride.
	if tt.Index(0, 0, 0, 1)-tt.Index(0, 0, 0, 0) != 1 {
		t.Error("channel stride != 1")
	}
	if tt.Index(0, 0, 1, 0)-tt.Index(0, 0, 0, 0) != 5 {
		t.Error("width stride != C")
	}
	if tt.Index(0, 1, 0, 0)-tt.Index(0, 0, 0, 0) != 20 {
		t.Error("height stride != W*C")
	}
	if tt.Index(1, 0, 0, 0)-tt.Index(0, 0, 0, 0) != 60 {
		t.Error("batch stride != H*W*C")
	}
	if got := tt.At(1, 2, 3, 4); got != float32(tt.Index(1, 2, 3, 4)) {
		t.Errorf("At/FillSequential mismatch: %v", got)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	tt := New(2, 2, 2, 2)
	tt.Set(1, 0, 1, 1, 42)
	if tt.At(1, 0, 1, 1) != 42 {
		t.Fatal("Set/At mismatch")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(1, 1, 1, 4)
	a.FillSequential()
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] == 99 {
		t.Fatal("clone shares storage")
	}
	if !a.SameShape(b) {
		t.Fatal("clone shape mismatch")
	}
}

func TestMaxAbsDiffAndRelErr(t *testing.T) {
	a := New(1, 1, 1, 3)
	b := New(1, 1, 1, 3)
	a.Data = []float32{1, 2, 3}
	b.Data = []float32{1, 2.5, 3}
	if d := a.MaxAbsDiff(b); d != 0.5 {
		t.Errorf("MaxAbsDiff = %v", d)
	}
	if r := a.RelErr(b); r != 0.5/4 {
		t.Errorf("RelErr = %v", r)
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := New(1, 4, 4, 4)
	b := New(1, 4, 4, 4)
	a.FillRandom(42, 1)
	b.FillRandom(42, 1)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("FillRandom not deterministic for same seed")
	}
	b.FillRandom(43, 1)
	if a.MaxAbsDiff(b) == 0 {
		t.Fatal("different seeds produced identical tensors")
	}
}

func TestInvalidDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero dim")
		}
	}()
	New(0, 1, 1, 1)
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice(1, 1, 1, 2, []float32{1})
}

// Property: Index is a bijection onto [0, Len).
func TestIndexBijection(t *testing.T) {
	tt := New(2, 3, 4, 5)
	seen := make([]bool, tt.Len())
	for n := 0; n < tt.N; n++ {
		for y := 0; y < tt.H; y++ {
			for x := 0; x < tt.W; x++ {
				for c := 0; c < tt.C; c++ {
					i := tt.Index(n, y, x, c)
					if i < 0 || i >= tt.Len() || seen[i] {
						t.Fatalf("index collision or out of range at (%d,%d,%d,%d)=%d", n, y, x, c, i)
					}
					seen[i] = true
				}
			}
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixStrided(3, 4, 4)
	m.Set(2, 3, 5)
	if m.At(2, 3) != 5 {
		t.Fatal("matrix Set/At")
	}
	if len(m.Row(1)) != 4 {
		t.Fatal("row length")
	}
}

func TestMatrixStride(t *testing.T) {
	m := NewMatrixStrided(2, 3, 8)
	m.Set(1, 2, 9)
	if m.Data[1*8+2] != 9 {
		t.Fatal("strided addressing broken")
	}
	// Padding region must remain zero after logical writes.
	for c := 3; c < 8; c++ {
		if m.Data[1*8+c] != 0 {
			t.Fatal("padding disturbed")
		}
	}
}
