package sparse

import (
	"sort"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// DIA stores a matrix by diagonals: the kernel space is
// K = [0, nDiag) × [0, cols), and kernel point (b, j) holds the entry at
// row j - offsets[b], column j, when that row exists. Both relations are
// implicit: the column relation is j = k % cols (a ModRelation) and the
// row relation is the per-diagonal shift (a DiagRelation). Out-of-matrix
// slots are padding and must hold zero.
type DIA struct {
	rows, cols int64
	offsets    []int64   // offset of each stored diagonal: col - row
	vals       []float64 // len nDiag*cols, diagonal-major

	rowRel *dpart.DiagRelation
	colRel *dpart.ModRelation
}

// NewDIA wraps diagonal-major value storage (retained, not copied) as a
// rows × cols matrix. vals[b*cols + j] is the entry at column j of the
// diagonal with offset offsets[b] (row j - offsets[b]); slots whose row
// falls outside [0, rows) must be zero.
func NewDIA(rows, cols int64, offsets []int64, vals []float64) *DIA {
	if int64(len(vals)) != int64(len(offsets))*cols {
		panic("sparse: DIA vals must have nDiag*cols entries")
	}
	return &DIA{
		rows: rows, cols: cols,
		offsets: offsets, vals: vals,
		rowRel: dpart.NewDiagRelation("K", offsets, cols, rows, "R"),
		colRel: dpart.NewModRelation("K", int64(len(offsets)), cols, "D"),
	}
}

// DIAFromCSR converts a CSR matrix to DIA, storing every populated
// diagonal.
func DIAFromCSR(a *CSR) *DIA {
	seen := make(map[int64]bool)
	for i := int64(0); i < a.rows; i++ {
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			seen[a.colIdx[k]-i] = true
		}
	}
	offsets := make([]int64, 0, len(seen))
	for off := range seen {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	slot := make(map[int64]int64, len(offsets))
	for b, off := range offsets {
		slot[off] = int64(b)
	}
	vals := make([]float64, int64(len(offsets))*a.cols)
	for i := int64(0); i < a.rows; i++ {
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			j := a.colIdx[k]
			vals[slot[j-i]*a.cols+j] += a.vals[k]
		}
	}
	return NewDIA(a.rows, a.cols, offsets, vals)
}

// Domain implements Matrix.
func (a *DIA) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *DIA) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *DIA) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// RowRelation implements Matrix.
func (a *DIA) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *DIA) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *DIA) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *DIA) Format() string { return "DIA" }

// NumDiagonals returns the number of stored diagonals.
func (a *DIA) NumDiagonals() int { return len(a.offsets) }

// diagCols clips kernel interval iv to diagonal b of a DIA-shaped kernel
// space (one run of cols slots per diagonal, offset off = col − row) and
// to the columns whose row j − off lies in [0, rows): the diagonal's
// stored entries in iv are those at columns [jLo, jHi], and padding is
// skipped. An empty clip has jLo > jHi.
func diagCols(iv index.Interval, b, off, rows, cols int64) (jLo, jHi int64) {
	base := b * cols
	return max(iv.Lo-base, off, 0), min(iv.Hi-base, rows+off-1, cols-1)
}

// mulAddRun adds v[t]·x[t] into y[t] for every t in v. Cutting x and y
// to len(v) lets the compiler drop the bounds checks from the loop.
func mulAddRun(y, v, x []float64) {
	x, y = x[:len(v)], y[:len(v)]
	for t, vt := range v {
		y[t] += vt * x[t]
	}
}

// MultiplyAddPart implements Matrix. Each interval is split at diagonal
// boundaries and each diagonal's run is one tight loop.
func (a *DIA) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for b, bEnd := iv.Lo/a.cols, iv.Hi/a.cols; b <= bEnd; b++ {
			off, base := a.offsets[b], b*a.cols
			if jLo, jHi := diagCols(iv, b, off, a.rows, a.cols); jLo <= jHi {
				mulAddRun(y[jLo-off:], a.vals[base+jLo:base+jHi+1], x[jLo:])
			}
		}
	})
}

// MultiplyAddTPart implements Matrix.
func (a *DIA) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for b, bEnd := iv.Lo/a.cols, iv.Hi/a.cols; b <= bEnd; b++ {
			off, base := a.offsets[b], b*a.cols
			if jLo, jHi := diagCols(iv, b, off, a.rows, a.cols); jLo <= jHi {
				mulAddRun(y[jLo:], a.vals[base+jLo:base+jHi+1], x[jLo-off:])
			}
		}
	})
}
