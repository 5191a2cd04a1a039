// Package tensor provides the 4-D NHWC tensors used throughout the Duplo
// reproduction.
//
// The paper (§III-C) notes that cuDNN mandates the NHWC layout for tensor
// cores, so every tensor in this repository is stored NHWC: the innermost
// (unit-stride) dimension is the channel, then width, then height, then
// batch. All convolution, lowering and ID-generation code depends on this
// layout matching device memory order.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense 4-D tensor in NHWC layout backed by float32 storage.
type Tensor struct {
	N, H, W, C int
	Data       []float32
}

// New allocates a zero-filled NHWC tensor. It panics on non-positive
// dimensions; tensors of zero size are never meaningful in this codebase and
// a panic localizes configuration bugs.
func New(n, h, w, c int) *Tensor {
	if n <= 0 || h <= 0 || w <= 0 || c <= 0 {
		panic(fmt.Sprintf("tensor: invalid dims %dx%dx%dx%d", n, h, w, c))
	}
	return &Tensor{N: n, H: h, W: w, C: c, Data: make([]float32, n*h*w*c)}
}

// FromSlice wraps data (length must equal n*h*w*c) without copying.
func FromSlice(n, h, w, c int, data []float32) *Tensor {
	if len(data) != n*h*w*c {
		panic(fmt.Sprintf("tensor: data length %d != %d", len(data), n*h*w*c))
	}
	return &Tensor{N: n, H: h, W: w, C: c, Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return t.N * t.H * t.W * t.C }

// Index returns the linear NHWC index of (n, y, x, c).
func (t *Tensor) Index(n, y, x, c int) int {
	return ((n*t.H+y)*t.W+x)*t.C + c
}

// At returns the element at (n, y, x, c).
func (t *Tensor) At(n, y, x, c int) float32 { return t.Data[t.Index(n, y, x, c)] }

// Set stores v at (n, y, x, c).
func (t *Tensor) Set(n, y, x, c int, v float32) { t.Data[t.Index(n, y, x, c)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	return &Tensor{N: t.N, H: t.H, W: t.W, C: t.C, Data: d}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// FillRandom fills the tensor with deterministic pseudo-random values drawn
// from N(0, 1) scaled by scale. The same seed always produces the same
// tensor, which keeps functional cross-checks and benches reproducible.
func (t *Tensor) FillRandom(seed int64, scale float32) {
	rng := rand.New(rand.NewSource(seed))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * scale
	}
}

// FillSequential fills with 0, 1, 2, ... useful for layout tests.
func (t *Tensor) FillSequential() {
	for i := range t.Data {
		t.Data[i] = float32(i)
	}
}

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.N == o.N && t.H == o.H && t.W == o.W && t.C == o.C
}

// MaxAbsDiff returns the largest absolute element-wise difference between two
// same-shaped tensors. It panics on shape mismatch.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.ShapeString(), o.ShapeString()))
	}
	var max float64
	for i := range t.Data {
		d := math.Abs(float64(t.Data[i]) - float64(o.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// RelErr returns max |a-b| / (1 + max|a|) over all elements, a scale-aware
// error metric for comparing convolution implementations.
func (t *Tensor) RelErr(o *Tensor) float64 {
	if !t.SameShape(o) {
		panic("tensor: shape mismatch")
	}
	var maxDiff, maxVal float64
	for i := range t.Data {
		d := math.Abs(float64(t.Data[i]) - float64(o.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
		a := math.Abs(float64(t.Data[i]))
		if a > maxVal {
			maxVal = a
		}
	}
	return maxDiff / (1 + maxVal)
}

// ShapeString returns "NxHxWxC".
func (t *Tensor) ShapeString() string {
	return fmt.Sprintf("%dx%dx%dx%d", t.N, t.H, t.W, t.C)
}
