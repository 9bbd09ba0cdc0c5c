package sparse

import (
	"sort"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// CSR stores a matrix in compressed sparse row form: the kernel space is
// totally ordered by row, rowptr: R → [K, K] gives each row's contiguous
// kernel interval (a SegmentRelation), and col: K → D is explicit.
type CSR struct {
	rows, cols int64
	rowptr     []int64
	colIdx     []int64
	vals       []float64

	rowRel *dpart.SegmentRelation
	colRel *dpart.FnRelation
}

// NewCSR wraps the given arrays (retained, not copied) as a rows × cols
// matrix. len(rowptr) must be rows+1 with rowptr[rows] == len(vals);
// column indices within each row need not be sorted.
func NewCSR(rows, cols int64, rowptr, colIdx []int64, vals []float64) *CSR {
	if int64(len(rowptr)) != rows+1 {
		panic("sparse: CSR rowptr must have rows+1 entries")
	}
	if len(colIdx) != len(vals) || rowptr[rows] != int64(len(vals)) {
		panic("sparse: CSR arrays inconsistent")
	}
	return &CSR{
		rows: rows, cols: cols,
		rowptr: rowptr, colIdx: colIdx, vals: vals,
		rowRel: dpart.NewSegmentRelation("K", rowptr, "R"),
		colRel: dpart.NewFnRelation("K", colIdx, index.NewSpace("D", cols)),
	}
}

// CSRFromCoords assembles a CSR matrix from explicit coordinates,
// sorting by (row, col) and summing duplicates.
func CSRFromCoords(rows, cols int64, coords []Coord) *CSR {
	cs := make([]Coord, len(coords))
	copy(cs, coords)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Row != cs[j].Row {
			return cs[i].Row < cs[j].Row
		}
		return cs[i].Col < cs[j].Col
	})
	rowptr := make([]int64, rows+1)
	colIdx := make([]int64, 0, len(cs))
	vals := make([]float64, 0, len(cs))
	for idx := 0; idx < len(cs); {
		r, c, v := cs[idx].Row, cs[idx].Col, cs[idx].Val
		for idx++; idx < len(cs) && cs[idx].Row == r && cs[idx].Col == c; idx++ {
			v += cs[idx].Val
		}
		colIdx = append(colIdx, c)
		vals = append(vals, v)
		rowptr[r+1]++
	}
	for i := int64(0); i < rows; i++ {
		rowptr[i+1] += rowptr[i]
	}
	return NewCSR(rows, cols, rowptr, colIdx, vals)
}

// Domain implements Matrix.
func (a *CSR) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *CSR) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *CSR) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// RowRelation implements Matrix.
func (a *CSR) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *CSR) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *CSR) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *CSR) Format() string { return "CSR" }

// RowPtr returns the row pointer array (not to be modified).
func (a *CSR) RowPtr() []int64 { return a.rowptr }

// ColIdx returns the column index array (not to be modified).
func (a *CSR) ColIdx() []int64 { return a.colIdx }

// Vals returns the value array (not to be modified).
func (a *CSR) Vals() []float64 { return a.vals }

// rowOf returns the row owning kernel position k.
func (a *CSR) rowOf(k int64) int64 {
	// First row whose segment ends beyond k.
	return int64(sort.Search(int(a.rows), func(i int) bool { return a.rowptr[i+1] > k }))
}

// MultiplyAddPart implements Matrix. Within a kernel interval the row
// index advances monotonically, so one binary search per interval
// suffices.
func (a *CSR) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		i := a.rowOf(iv.Lo)
		for k := iv.Lo; k <= iv.Hi; {
			end := a.rowptr[i+1]
			if end > iv.Hi+1 {
				end = iv.Hi + 1
			}
			var sum float64
			for ; k < end; k++ {
				sum += a.vals[k] * x[a.colIdx[k]]
			}
			y[i] += sum
			i++
		}
	})
}

// MultiplyAddTPart implements Matrix.
func (a *CSR) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		i := a.rowOf(iv.Lo)
		for k := iv.Lo; k <= iv.Hi; {
			end := a.rowptr[i+1]
			if end > iv.Hi+1 {
				end = iv.Hi + 1
			}
			xi := x[i]
			for ; k < end; k++ {
				y[a.colIdx[k]] += a.vals[k] * xi
			}
			i++
		}
	})
}
