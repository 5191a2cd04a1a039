package memmodel

import (
	"testing"

	"duplo/internal/conv"
	"duplo/internal/workload"
)

func TestApplicability(t *testing.T) {
	s1 := conv.Params{N: 1, H: 8, W: 8, C: 4, K: 4, FH: 3, FW: 3, Pad: 1, Stride: 1}
	s2 := conv.Params{N: 1, H: 8, W: 8, C: 4, K: 4, FH: 3, FW: 3, Pad: 0, Stride: 2}
	f5 := conv.Params{N: 1, H: 8, W: 8, C: 4, K: 4, FH: 5, FW: 5, Pad: 2, Stride: 1}
	if !Applicable(Winograd, s1) || Applicable(Winograd, s2) || Applicable(Winograd, f5) {
		t.Error("winograd applicability wrong")
	}
	if !Applicable(FFT, s1) || Applicable(FFT, s2) || !Applicable(FFT, f5) {
		t.Error("fft applicability wrong")
	}
	if !Applicable(GEMM, s2) || !Applicable(GEMMTensorCore, s2) || !Applicable(Direct, s2) {
		t.Error("GEMM methods must always apply")
	}
	// The paper's missing bars: the entire GAN (stride 2) and ResNet C1.
	for _, l := range workload.GAN {
		if Applicable(Winograd, l.GemmParams()) && l.Params.Stride != 1 {
			t.Errorf("%s should be Winograd-inapplicable", l.FullName())
		}
	}
	c1, _ := workload.Find("ResNet", "C1")
	if Applicable(Winograd, c1.Params) {
		t.Error("ResNet C1 (7x7) should be Winograd-inapplicable")
	}
}

func TestGEMMUsageIsDuplicationDriven(t *testing.T) {
	// 3x3 stride-1 same conv: workspace is 9x the input, so relative usage
	// must exceed the duplication but stay below 1 + 9*inputShare... just
	// pin the exact value against hand arithmetic.
	p := conv.Params{N: 1, H: 56, W: 56, C: 64, K: 64, FH: 3, FW: 3, Pad: 1, Stride: 1}
	in := int64(56 * 56 * 64)
	f := int64(64 * 3 * 3 * 64)
	out := int64(56 * 56 * 64)
	ws := int64(56*56) * int64(3*3*64)
	wantDirect := (in + f + out) * 4
	if got := Bytes(Direct, p); got != wantDirect {
		t.Fatalf("direct bytes %d, want %d", got, wantDirect)
	}
	if got := Bytes(GEMM, p); got != wantDirect+ws*4 {
		t.Fatalf("gemm bytes %d, want %d", got, wantDirect+ws*4)
	}
	rel := RelativeUsage(GEMM, p)
	if rel < 4 || rel > 6 {
		t.Fatalf("C2-like GEMM relative usage %v (expect ~5x)", rel)
	}
}

func TestRelativeUsageAverages(t *testing.T) {
	// Fig. 3 averages: GEMM ~9.7x, Winograd ~12.2x, FFT ~53.5x over the
	// applicable layers. Check our analytic model lands in the right
	// regime (same ordering, same order of magnitude).
	avg := func(m Method) float64 {
		s, n := 0.0, 0
		for _, l := range workload.AllLayers() {
			p := l.GemmParams()
			if !Applicable(m, p) {
				continue
			}
			s += RelativeUsage(m, p)
			n++
		}
		return s / float64(n)
	}
	gemm, wino, fft := avg(GEMM), avg(Winograd), avg(FFT)
	if !(gemm > 2 && gemm < 25) {
		t.Errorf("GEMM avg usage %v out of regime (paper 9.7x)", gemm)
	}
	if !(wino > gemm*0.7) {
		t.Errorf("Winograd avg %v should be comparable to or above GEMM %v", wino, gemm)
	}
	if !(fft > wino && fft > 20) {
		t.Errorf("FFT avg %v should dominate (paper 53.5x)", fft)
	}
	t.Logf("avg usage: GEMM %.1fx (paper 9.7) Winograd %.1fx (12.2) FFT %.1fx (53.5)", gemm, wino, fft)
}

func TestTensorCoreUsesHalfPrecision(t *testing.T) {
	p := conv.Params{N: 2, H: 16, W: 16, C: 16, K: 16, FH: 3, FW: 3, Pad: 1, Stride: 1}
	// Same structure, half the element size (modulo K padding).
	if Bytes(GEMMTensorCore, p) >= Bytes(GEMM, p) {
		t.Error("tensor-core footprint should be smaller (half precision)")
	}
}

func TestImplicitGEMMSavings(t *testing.T) {
	// §II-C: implicit GEMM uses ~8.8x less global memory than explicit.
	var s float64
	var n int
	for _, l := range workload.AllLayers() {
		s += ImplicitVsExplicitRatio(l.GemmParams())
		n++
	}
	avg := s / float64(n)
	if avg < 3 || avg > 15 {
		t.Errorf("implicit-vs-explicit avg %v out of regime (paper 8.8x)", avg)
	}
	t.Logf("implicit GEMM saves %.1fx global memory (paper 8.8x)", avg)
}

func TestInapplicableIsZero(t *testing.T) {
	p := conv.Params{N: 1, H: 8, W: 8, C: 4, K: 4, FH: 5, FW: 5, Pad: 2, Stride: 2}
	if Bytes(Winograd, p) != 0 || RelativeUsage(FFT, p) != 0 {
		t.Error("inapplicable methods must report zero")
	}
}

// F(2x2, 3x3) covers only 3x3 unit-stride layers.
func TestWinogradApplicable(t *testing.T) {
	ok := conv.Params{N: 1, H: 8, W: 8, C: 1, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 1}
	if !Applicable(Winograd, ok) || !Applicable(WinogradTensorCore, ok) {
		t.Error("3x3 stride 1 should be applicable")
	}
	for _, p := range []conv.Params{
		{N: 1, H: 8, W: 8, C: 1, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 2},
		{N: 1, H: 8, W: 8, C: 1, K: 1, FH: 5, FW: 5, Pad: 2, Stride: 1},
		{N: 1, H: 8, W: 8, C: 1, K: 1, FH: 7, FW: 7, Pad: 3, Stride: 1},
	} {
		if Applicable(Winograd, p) || Applicable(WinogradTensorCore, p) {
			t.Errorf("%v should be inapplicable", p)
		}
	}
}

// FFT convolution covers any filter size but only unit stride.
func TestFFTApplicable(t *testing.T) {
	if !Applicable(FFT, conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Stride: 1}) {
		t.Error("stride 1 should be applicable")
	}
	if Applicable(FFT, conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Stride: 2}) {
		t.Error("stride 2 should be inapplicable")
	}
}

func TestWinogradTransformElems(t *testing.T) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 1}
	// tiles = 2x2=4; U = 16, V = 4*16 = 64, M = 4*16 = 64 -> 144.
	if got := winogradTransformElems(p); got != 144 {
		t.Errorf("winogradTransformElems = %d, want 144", got)
	}
	if got, want := Bytes(Winograd, p), Bytes(Direct, p)+144*4; got != want {
		t.Errorf("Winograd bytes %d, want direct + 144 fp32 = %d", got, want)
	}
	bad := conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 5, FW: 5, Pad: 2, Stride: 1}
	if Bytes(Winograd, bad) != 0 {
		t.Error("inapplicable layer should report 0 bytes")
	}
}

func TestFFTGridSizeAndTransformElems(t *testing.T) {
	p := conv.Params{N: 1, H: 6, W: 6, C: 1, K: 1, FH: 3, FW: 3, Pad: 1, Stride: 1}
	if FFTGridSize(p) != 8 {
		t.Fatalf("grid %d", FFTGridSize(p))
	}
	// input 1*1*64, filter 1*1*64, out 1*1*64 complex -> 2*192 = 384.
	if got := fftTransformElems(p); got != 384 {
		t.Errorf("fftTransformElems = %d, want 384", got)
	}
	if Bytes(FFT, conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Stride: 2}) != 0 {
		t.Error("inapplicable should be 0")
	}
}

func TestNextPow2(t *testing.T) {
	cases := [][2]int{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {224, 256}, {230, 256}, {257, 512}}
	for _, c := range cases {
		if got := nextPow2(c[0]); got != c[1] {
			t.Errorf("nextPow2(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range append(Methods(), Direct, ImplicitGEMM) {
		if m.String() == "?" || m.String() == "" {
			t.Errorf("method %d has no name", m)
		}
	}
	if len(Methods()) != 5 {
		t.Error("Fig. 2/3 compare five methods")
	}
}
