package tensor

import "fmt"

// Matrix is a dense row-major 2-D matrix of float32, used for GEMM workspaces
// and filter matrices. Stride is the row pitch in elements, allowing padded
// (K-aligned) workspaces without copying.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// NewMatrixStrided allocates a zero matrix whose rows are padded to stride
// elements (stride >= cols). The padding stays zero, which matches the
// zero-padded K dimension fed to tensor cores.
func NewMatrixStrided(rows, cols, stride int) *Matrix {
	if rows <= 0 || cols <= 0 || stride < cols {
		panic(fmt.Sprintf("tensor: invalid strided dims %dx%d stride %d", rows, cols, stride))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: make([]float32, rows*stride)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Stride+c] }

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Stride+c] = v }

// Row returns the slice backing row r (length Cols).
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Stride : r*m.Stride+m.Cols] }
