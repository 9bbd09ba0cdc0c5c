package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// Band is a matrix-free banded matrix: a set of diagonals (col − row
// offsets) with entries given by a coefficient function. Like
// StencilOperator it stores nothing per entry — its kernel space is
// DIA-shaped and both relations are implicit — so it scales to
// paper-sized problems in virtual mode.
//
// Band is the building block for the boundary-interaction matrices of
// the Figure 9 multi-operator experiment: the coupling between two halves
// of a split stencil grid is a single thin diagonal.
type Band struct {
	rows, cols int64
	offsets    []int64
	// coeff returns the entry of diagonal b at column j (row j −
	// offsets[b], already validated to be in range). A nil coeff makes
	// every entry zero, which is fine for virtual-mode experiments that
	// only use sizes and relations.
	coeff func(b int, j int64) float64

	rowRel *dpart.DiagRelation
	colRel *dpart.ModRelation
}

// NewBand builds a banded matrix-free operator. offsets are col − row
// diagonal offsets; coeff may be nil for structure-only (virtual) use.
func NewBand(rows, cols int64, offsets []int64, coeff func(b int, j int64) float64) *Band {
	offs := make([]int64, len(offsets))
	copy(offs, offsets)
	return &Band{
		rows: rows, cols: cols,
		offsets: offs, coeff: coeff,
		rowRel: dpart.NewDiagRelation("K", offs, cols, rows, "R"),
		colRel: dpart.NewModRelation("K", int64(len(offs)), cols, "D"),
	}
}

// ConstBand builds a banded operator whose diagonals each hold one
// constant value; vals[b] is the value of diagonal offsets[b].
func ConstBand(rows, cols int64, offsets []int64, vals []float64) *Band {
	if len(vals) != len(offsets) {
		panic("sparse: ConstBand needs one value per offset")
	}
	vs := make([]float64, len(vals))
	copy(vs, vals)
	return NewBand(rows, cols, offsets, func(b int, _ int64) float64 { return vs[b] })
}

// Domain implements Matrix.
func (a *Band) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *Band) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *Band) Kernel() index.Space {
	return index.NewSpace("K", int64(len(a.offsets))*a.cols)
}

// RowRelation implements Matrix.
func (a *Band) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *Band) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix: the kernel slot count, what a DIA-style kernel
// streams.
func (a *Band) NNZ() int64 { return int64(len(a.offsets)) * a.cols }

// Format implements Matrix.
func (a *Band) Format() string { return "Band" }

// MultiplyAddPart implements Matrix.
func (a *Band) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	if a.coeff == nil {
		return
	}
	kset.EachInterval(func(iv index.Interval) {
		for b, bEnd := iv.Lo/a.cols, iv.Hi/a.cols; b <= bEnd; b++ {
			off := a.offsets[b]
			jLo, jHi := diagCols(iv, b, off, a.rows, a.cols)
			for j := jLo; j <= jHi; j++ {
				if v := a.coeff(int(b), j); v != 0 {
					y[j-off] += v * x[j]
				}
			}
		}
	})
}

// MultiplyAddTPart implements Matrix.
func (a *Band) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	if a.coeff == nil {
		return
	}
	kset.EachInterval(func(iv index.Interval) {
		for b, bEnd := iv.Lo/a.cols, iv.Hi/a.cols; b <= bEnd; b++ {
			off := a.offsets[b]
			jLo, jHi := diagCols(iv, b, off, a.rows, a.cols)
			for j := jLo; j <= jHi; j++ {
				if v := a.coeff(int(b), j); v != 0 {
					y[j] += v * x[j-off]
				}
			}
		}
	})
}
