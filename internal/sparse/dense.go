package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// Dense stores every entry of a rows × cols matrix in row-major order.
// In the KDR framing (Figure 3) its kernel space is the full product
// K = R × D and both relations are the implicit projections π1 (a
// DivRelation) and π2 (a ModRelation), so no relation metadata is stored.
type Dense struct {
	rows, cols int64
	vals       []float64 // row-major, len rows*cols

	rowRel *dpart.DivRelation
	colRel *dpart.ModRelation
}

// NewDense wraps row-major storage (retained, not copied) as a
// rows × cols matrix.
func NewDense(rows, cols int64, vals []float64) *Dense {
	if int64(len(vals)) != rows*cols {
		panic("sparse: Dense vals must have rows*cols entries")
	}
	return &Dense{
		rows: rows, cols: cols, vals: vals,
		rowRel: dpart.NewDivRelation("K", rows, cols, "R"),
		colRel: dpart.NewModRelation("K", rows, cols, "D"),
	}
}

// DenseFromMatrix materializes any matrix as Dense.
func DenseFromMatrix(a Matrix) *Dense {
	rows, cols := Dims(a)
	return NewDense(rows, cols, ToDense(a))
}

// Domain implements Matrix.
func (a *Dense) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *Dense) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *Dense) Kernel() index.Space { return index.NewSpace("K", a.rows*a.cols) }

// RowRelation implements Matrix.
func (a *Dense) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *Dense) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *Dense) NNZ() int64 { return a.rows * a.cols }

// Format implements Matrix.
func (a *Dense) Format() string { return "Dense" }

// At returns the entry at (i, j).
func (a *Dense) At(i, j int64) float64 { return a.vals[i*a.cols+j] }

// Set stores v at (i, j).
func (a *Dense) Set(i, j int64, v float64) { a.vals[i*a.cols+j] = v }

// MultiplyAddPart implements Matrix. Each interval is split at row
// boundaries, decoding the row once per interval.
func (a *Dense) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for i, k := iv.Lo/a.cols, iv.Lo; k <= iv.Hi; i++ {
			end := min((i+1)*a.cols, iv.Hi+1)
			row := a.vals[k:end]
			xrow := x[k-i*a.cols:][:len(row)]
			var sum float64
			for j, v := range row {
				sum += v * xrow[j]
			}
			y[i] += sum
			k = end
		}
	})
}

// MultiplyAddTPart implements Matrix.
func (a *Dense) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for i, k := iv.Lo/a.cols, iv.Lo; k <= iv.Hi; i++ {
			end := min((i+1)*a.cols, iv.Hi+1)
			row := a.vals[k:end]
			yrow, xi := y[k-i*a.cols:][:len(row)], x[i]
			for j, v := range row {
				yrow[j] += v * xi
			}
			k = end
		}
	})
}
