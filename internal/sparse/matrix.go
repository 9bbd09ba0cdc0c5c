package sparse

import (
	"fmt"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// Matrix is the KDR representation of a sparse R × D matrix: an entry
// collection over a kernel space K plus the row relation (K ↔ R) and
// column relation (K ↔ D) that place each stored number in the grid.
//
// Vectors are dense []float64 slices indexed by the linearized domain and
// range spaces. A format writes one kernel per direction, each an
// in-place multiply-add restricted to a set of kernel points: partitioning
// K is how work is split, so the whole product is just the restriction to
// all of K. Use SpMV and SpMVT for the assign-form product.
type Matrix interface {
	// Domain returns the domain space D (columns, solution vector).
	Domain() index.Space
	// Range returns the range space R (rows, right-hand side).
	Range() index.Space
	// Kernel returns the kernel space K indexing stored entries.
	Kernel() index.Space
	// RowRelation returns the row relation with K on the left and R on
	// the right.
	RowRelation() dpart.Relation
	// ColRelation returns the column relation with K on the left and D on
	// the right.
	ColRelation() dpart.Relation
	// NNZ returns the number of stored entries (including any padding the
	// format requires).
	NNZ() int64
	// Format returns the storage format name ("CSR", "COO", ...).
	Format() string
	// MultiplyAddPart computes the contributions of kernel points in kset
	// only: y[row(k)] += A_k · x[col(k)] for k ∈ kset.
	MultiplyAddPart(y, x []float64, kset index.IntervalSet)
	// MultiplyAddTPart is the adjoint restricted form:
	// y[col(k)] += A_k · x[row(k)] for k ∈ kset.
	MultiplyAddTPart(y, x []float64, kset index.IntervalSet)
}

// SpMV computes y = A·x, overwriting y.
func SpMV(a Matrix, y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	a.MultiplyAddPart(y, x, a.Kernel().Set)
}

// SpMVT computes y = Aᵀ·x, overwriting y.
func SpMVT(a Matrix, y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	a.MultiplyAddTPart(y, x, a.Kernel().Set)
}

// Dims returns (rows, cols) of the matrix.
func Dims(a Matrix) (rows, cols int64) {
	return a.Range().Size(), a.Domain().Size()
}

// CheckShapes panics unless y and x have the range and domain sizes of a.
// Kernels call it on entry so shape bugs fail fast with a clear message.
func CheckShapes(a Matrix, y, x []float64) {
	rows, cols := Dims(a)
	if int64(len(y)) != rows || int64(len(x)) != cols {
		panic(fmt.Sprintf("sparse: %s is %d x %d but len(y)=%d, len(x)=%d",
			a.Format(), rows, cols, len(y), len(x)))
	}
}

// checkShapesT is CheckShapes for adjoint products.
func checkShapesT(a Matrix, y, x []float64) {
	rows, cols := Dims(a)
	if int64(len(y)) != cols || int64(len(x)) != rows {
		panic(fmt.Sprintf("sparse: %sᵀ is %d x %d but len(y)=%d, len(x)=%d",
			a.Format(), cols, rows, len(y), len(x)))
	}
}

// ToDense materializes the matrix as a dense row-major rows × cols array.
// Intended for tests and small systems.
func ToDense(a Matrix) []float64 {
	rows, cols := Dims(a)
	out := make([]float64, rows*cols)
	x := make([]float64, cols)
	y := make([]float64, rows)
	for j := int64(0); j < cols; j++ {
		x[j] = 1
		SpMV(a, y, x)
		x[j] = 0
		for i := int64(0); i < rows; i++ {
			out[i*cols+j] = y[i]
		}
	}
	return out
}

// Coord is one explicit nonzero used when assembling matrices.
type Coord struct {
	Row, Col int64
	Val      float64
}
