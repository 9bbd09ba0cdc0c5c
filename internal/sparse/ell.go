package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// ELL stores a matrix in ELLPACK form: the kernel space is the product
// K = R × [0, width) — every row owns exactly width slots — so the row
// relation is the implicit projection π1 (a DivRelation) and only the
// column indices are stored. Rows with fewer than width entries are
// padded with zero-valued slots whose column index repeats the row's last
// valid column (or 0 for empty rows); padding therefore never changes the
// product.
type ELL struct {
	rows, cols, width int64
	colIdx            []int64 // len rows*width, row-major
	vals              []float64

	rowRel *dpart.DivRelation
	colRel *dpart.FnRelation
}

// NewELL wraps row-major slot arrays (retained, not copied) of length
// rows*width as a rows × cols matrix.
func NewELL(rows, cols, width int64, colIdx []int64, vals []float64) *ELL {
	if int64(len(colIdx)) != rows*width || len(colIdx) != len(vals) {
		panic("sparse: ELL arrays must have rows*width entries")
	}
	return &ELL{
		rows: rows, cols: cols, width: width,
		colIdx: colIdx, vals: vals,
		rowRel: dpart.NewDivRelation("K", rows, width, "R"),
		colRel: dpart.NewFnRelation("K", colIdx, index.NewSpace("D", cols)),
	}
}

// ELLFromCSR converts a CSR matrix to ELL, sizing the width to the
// longest row.
func ELLFromCSR(a *CSR) *ELL {
	width := int64(1)
	for i := int64(0); i < a.rows; i++ {
		if w := a.rowptr[i+1] - a.rowptr[i]; w > width {
			width = w
		}
	}
	colIdx := make([]int64, a.rows*width)
	vals := make([]float64, a.rows*width)
	for i := int64(0); i < a.rows; i++ {
		var pad int64 // last valid column, for padding slots
		s := int64(0)
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			colIdx[i*width+s] = a.colIdx[k]
			vals[i*width+s] = a.vals[k]
			pad = a.colIdx[k]
			s++
		}
		for ; s < width; s++ {
			colIdx[i*width+s] = pad
		}
	}
	return NewELL(a.rows, a.cols, width, colIdx, vals)
}

// Domain implements Matrix.
func (a *ELL) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *ELL) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *ELL) Kernel() index.Space { return index.NewSpace("K", a.rows*a.width) }

// RowRelation implements Matrix.
func (a *ELL) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *ELL) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *ELL) NNZ() int64 { return a.rows * a.width }

// Format implements Matrix.
func (a *ELL) Format() string { return "ELL" }

// Width returns the fixed number of slots per row.
func (a *ELL) Width() int64 { return a.width }

// MultiplyAddPart implements Matrix. Each interval is split at row
// boundaries (every width slots), decoding the row once per interval.
func (a *ELL) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for i, k := iv.Lo/a.width, iv.Lo; k <= iv.Hi; i++ {
			end := min((i+1)*a.width, iv.Hi+1)
			y[i] += gatherDot(a.vals[k:end], a.colIdx[k:], x)
			k = end
		}
	})
}

// MultiplyAddTPart implements Matrix.
func (a *ELL) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for i, k := iv.Lo/a.width, iv.Lo; k <= iv.Hi; i++ {
			end := min((i+1)*a.width, iv.Hi+1)
			scatterAxpy(y, a.colIdx[k:], a.vals[k:end], x[i])
			k = end
		}
	})
}

// gatherDot returns the sum of v[t]·x[idx[t]] over t in v. Cutting idx
// to len(v) lets the compiler drop all but the gather's bounds check.
func gatherDot(v []float64, idx []int64, x []float64) float64 {
	idx = idx[:len(v)]
	var sum float64
	for t, vt := range v {
		sum += vt * x[idx[t]]
	}
	return sum
}

// scatterAxpy adds v[t]·s into y[idx[t]] for every t in v.
func scatterAxpy(y []float64, idx []int64, v []float64, s float64) {
	idx = idx[:len(v)]
	for t, vt := range v {
		y[idx[t]] += vt * s
	}
}

// ELLPrime is the column-major dual of ELL (the ELL′ row of Figure 3):
// the kernel space is K = D × [0, width) — every column owns width slots —
// so the column relation is implicit (π1) and only row indices are stored.
type ELLPrime struct {
	rows, cols, width int64
	rowIdx            []int64 // len cols*width, column-major
	vals              []float64

	rowRel *dpart.FnRelation
	colRel *dpart.DivRelation
}

// NewELLPrime wraps column-major slot arrays (retained, not copied) of
// length cols*width as a rows × cols matrix.
func NewELLPrime(rows, cols, width int64, rowIdx []int64, vals []float64) *ELLPrime {
	if int64(len(rowIdx)) != cols*width || len(rowIdx) != len(vals) {
		panic("sparse: ELL' arrays must have cols*width entries")
	}
	return &ELLPrime{
		rows: rows, cols: cols, width: width,
		rowIdx: rowIdx, vals: vals,
		rowRel: dpart.NewFnRelation("K", rowIdx, index.NewSpace("R", rows)),
		colRel: dpart.NewDivRelation("K", cols, width, "D"),
	}
}

// ELLPrimeFromCSC converts a CSC matrix to ELL′, sizing the width to the
// longest column.
func ELLPrimeFromCSC(a *CSC) *ELLPrime {
	width := int64(1)
	for j := int64(0); j < a.cols; j++ {
		if w := a.colptr[j+1] - a.colptr[j]; w > width {
			width = w
		}
	}
	rowIdx := make([]int64, a.cols*width)
	vals := make([]float64, a.cols*width)
	for j := int64(0); j < a.cols; j++ {
		var pad int64
		s := int64(0)
		for k := a.colptr[j]; k < a.colptr[j+1]; k++ {
			rowIdx[j*width+s] = a.rowIdx[k]
			vals[j*width+s] = a.vals[k]
			pad = a.rowIdx[k]
			s++
		}
		for ; s < width; s++ {
			rowIdx[j*width+s] = pad
		}
	}
	return NewELLPrime(a.rows, a.cols, width, rowIdx, vals)
}

// Domain implements Matrix.
func (a *ELLPrime) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *ELLPrime) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *ELLPrime) Kernel() index.Space { return index.NewSpace("K", a.cols*a.width) }

// RowRelation implements Matrix.
func (a *ELLPrime) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *ELLPrime) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *ELLPrime) NNZ() int64 { return a.cols * a.width }

// Format implements Matrix.
func (a *ELLPrime) Format() string { return "ELL'" }

// MultiplyAddPart implements Matrix. Each interval is split at column
// boundaries (every width slots), decoding the column once per interval.
func (a *ELLPrime) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for j, k := iv.Lo/a.width, iv.Lo; k <= iv.Hi; j++ {
			end := min((j+1)*a.width, iv.Hi+1)
			scatterAxpy(y, a.rowIdx[k:], a.vals[k:end], x[j])
			k = end
		}
	})
}

// MultiplyAddTPart implements Matrix.
func (a *ELLPrime) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for j, k := iv.Lo/a.width, iv.Lo; k <= iv.Hi; j++ {
			end := min((j+1)*a.width, iv.Hi+1)
			y[j] += gatherDot(a.vals[k:end], a.rowIdx[k:], x)
			k = end
		}
	})
}
