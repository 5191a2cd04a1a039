package lowering

import (
	"testing"

	"duplo/internal/conv"
	"duplo/internal/tensor"
)

var benchP = conv.Params{N: 1, H: 32, W: 32, C: 16, K: 16, FH: 3, FW: 3, Pad: 1, Stride: 1}

func BenchmarkLower(b *testing.B) {
	in := tensor.New(benchP.N, benchP.H, benchP.W, benchP.C)
	in.FillRandom(1, 1)
	f := tensor.New(benchP.K, benchP.FH, benchP.FW, benchP.C)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lower(benchP, in, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFillRow(b *testing.B) {
	in := tensor.New(benchP.N, benchP.H, benchP.W, benchP.C)
	in.FillRandom(1, 1)
	buf := make([]float32, benchP.GemmK())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FillRow(benchP, in, 0, i%benchP.OutH(), i%benchP.OutW(), buf)
	}
}
