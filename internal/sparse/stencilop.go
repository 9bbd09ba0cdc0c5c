package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// StencilOperator is a matrix-free stencil Laplacian: it implements the
// Matrix interface without storing any entries, computing coefficients on
// the fly from the grid geometry. Its kernel space is DIA-shaped —
// K = nDiag × n with one block per stencil offset — and both relations
// are implicit, so the universal co-partitioning operators apply to it
// exactly as to stored formats.
//
// StencilOperator demonstrates the paper's P2 claim (user-defined and
// matrix-free operators need no library changes) and, because its memory
// footprint is O(1), lets virtual-mode benchmarks drive the simulator at
// the paper's full problem scale (up to 2^32 unknowns).
type StencilOperator struct {
	kind StencilKind
	grid index.Grid
	n    int64
	// offsets[b] is the linearized column-minus-row offset of diagonal b;
	// coordOff[b] is the same offset in grid coordinates, used to reject
	// the wrap-around slots where a linearized offset crosses a grid
	// boundary.
	offsets  []int64
	coordOff [][3]int64
	diagVal  float64

	rowRel *dpart.DiagRelation
	colRel *dpart.ModRelation
}

// NewStencilOperator builds a matrix-free operator for the given stencil
// on the given grid. The grid's rank must match the stencil's.
func NewStencilOperator(kind StencilKind, grid index.Grid) *StencilOperator {
	if grid.Rank() != kind.Rank() {
		panic("sparse: grid rank does not match stencil")
	}
	op := &StencilOperator{kind: kind, grid: grid, n: grid.Size()}
	var coords [][3]int64
	switch kind {
	case Stencil1D3:
		coords = [][3]int64{{-1}, {0}, {1}}
		op.diagVal = 2
	case Stencil2D5:
		coords = [][3]int64{{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}}
		op.diagVal = 4
	case Stencil3D7:
		coords = [][3]int64{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}}
		op.diagVal = 6
	case Stencil3D27:
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for dz := int64(-1); dz <= 1; dz++ {
					coords = append(coords, [3]int64{dx, dy, dz})
				}
			}
		}
		op.diagVal = 26
	default:
		panic("sparse: unknown stencil kind")
	}
	op.coordOff = coords
	op.offsets = make([]int64, len(coords))
	for b, c := range coords {
		off := int64(0)
		for d := 0; d < grid.Rank(); d++ {
			off = off*grid.Dims[d] + c[d]
		}
		op.offsets[b] = off
	}
	op.rowRel = dpart.NewDiagRelation("K", op.offsets, op.n, op.n, "R")
	op.colRel = dpart.NewModRelation("K", int64(len(op.offsets)), op.n, "D")
	return op
}

// Domain implements Matrix.
func (a *StencilOperator) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *StencilOperator) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *StencilOperator) Kernel() index.Space {
	return index.NewSpace("K", int64(len(a.offsets))*a.n)
}

// RowRelation implements Matrix.
func (a *StencilOperator) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *StencilOperator) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix. It counts kernel slots (including boundary
// padding), which is what the bandwidth cost model streams.
func (a *StencilOperator) NNZ() int64 { return int64(len(a.offsets)) * a.n }

// Format implements Matrix.
func (a *StencilOperator) Format() string { return "Stencil(" + a.kind.String() + ")" }

// Grid returns the underlying grid.
func (a *StencilOperator) Grid() index.Grid { return a.grid }

// coeff returns the matrix entry for kernel slot (b, j), or 0 for
// padding: the neighbor must exist in the grid (no wrap-around).
func (a *StencilOperator) coeff(b, j int64) float64 {
	c := a.coordOff[b]
	rem := j
	// The entry is A[i, j] with i = j - offsets[b]; validity requires
	// every coordinate of j minus the offset to stay in the grid.
	for d := a.grid.Rank() - 1; d >= 0; d-- {
		cd := rem % a.grid.Dims[d]
		rem /= a.grid.Dims[d]
		id := cd - c[d]
		if id < 0 || id >= a.grid.Dims[d] {
			return 0
		}
	}
	if a.offsets[b] == 0 {
		return a.diagVal
	}
	return -1
}

// MultiplyAddPart implements Matrix.
func (a *StencilOperator) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for b, bEnd := iv.Lo/a.n, iv.Hi/a.n; b <= bEnd; b++ {
			off := a.offsets[b]
			jLo, jHi := diagCols(iv, b, off, a.n, a.n)
			for j := jLo; j <= jHi; j++ {
				if v := a.coeff(b, j); v != 0 {
					y[j-off] += v * x[j]
				}
			}
		}
	})
}

// MultiplyAddTPart implements Matrix: for each kernel slot in kset
// holding entry (i, j), it adds A[i,j]·x[i] into y[j].
func (a *StencilOperator) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	kset.EachInterval(func(iv index.Interval) {
		for b, bEnd := iv.Lo/a.n, iv.Hi/a.n; b <= bEnd; b++ {
			off := a.offsets[b]
			jLo, jHi := diagCols(iv, b, off, a.n, a.n)
			for j := jLo; j <= jHi; j++ {
				if v := a.coeff(b, j); v != 0 {
					y[j] += v * x[j-off]
				}
			}
		}
	})
}
