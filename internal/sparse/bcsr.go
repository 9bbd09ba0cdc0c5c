package sparse

import (
	"sort"
	"sync"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// BCSR stores a matrix in block compressed sparse row form: the kernel
// space is K = K0 × BR × BD where K0 indexes dense br × bd blocks, the
// block-row pointer rowptr: R0 → [K0, K0] orders blocks by block row, and
// bcol: K0 → D0 stores block columns. rows and cols must be multiples of
// the block shape.
//
// The structural assumptions make the within-block coordinates implicit,
// which the kernels exploit; the point-level row/col relations required by
// the Matrix interface are materialized lazily on first use, which keeps
// the universal co-partitioning operators applicable to block formats.
type BCSR struct {
	rows, cols int64
	br, bd     int64   // block shape
	rowptr     []int64 // len rows/br + 1, in block units
	bcol       []int64 // block column of each block
	vals       []float64

	relOnce        sync.Once
	rowRel, colRel *dpart.FnRelation
}

// NewBCSR wraps block storage (retained, not copied) as a rows × cols
// matrix with br × bd blocks. vals holds the blocks row-major,
// back to back.
func NewBCSR(rows, cols, br, bd int64, rowptr, bcol []int64, vals []float64) *BCSR {
	if rows%br != 0 || cols%bd != 0 {
		panic("sparse: BCSR dimensions must be multiples of the block shape")
	}
	if int64(len(rowptr)) != rows/br+1 {
		panic("sparse: BCSR rowptr must have rows/br+1 entries")
	}
	if int64(len(vals)) != int64(len(bcol))*br*bd {
		panic("sparse: BCSR vals must have nblocks*br*bd entries")
	}
	return &BCSR{
		rows: rows, cols: cols, br: br, bd: bd,
		rowptr: rowptr, bcol: bcol, vals: vals,
	}
}

// BCSRFromCSR converts a CSR matrix to BCSR with the given block shape,
// materializing every block that contains at least one nonzero.
func BCSRFromCSR(a *CSR, br, bd int64) *BCSR {
	if a.rows%br != 0 || a.cols%bd != 0 {
		panic("sparse: BCSR block shape must divide the matrix dimensions")
	}
	nbr := a.rows / br
	// Collect the distinct block columns of each block row.
	blockCols := make([][]int64, nbr)
	for i := int64(0); i < a.rows; i++ {
		bi := i / br
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			blockCols[bi] = append(blockCols[bi], a.colIdx[k]/bd)
		}
	}
	rowptr := make([]int64, nbr+1)
	var bcol []int64
	for bi := int64(0); bi < nbr; bi++ {
		cs := blockCols[bi]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		rowptr[bi] = int64(len(bcol))
		for i, c := range cs {
			if i == 0 || c != cs[i-1] {
				bcol = append(bcol, c)
			}
		}
	}
	rowptr[nbr] = int64(len(bcol))
	vals := make([]float64, int64(len(bcol))*br*bd)
	// Fill block values.
	for i := int64(0); i < a.rows; i++ {
		bi := i / br
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			j := a.colIdx[k]
			bj := j / bd
			// Find the block (bi, bj) by binary search over this row's blocks.
			lo, hi := rowptr[bi], rowptr[bi+1]
			b := lo + int64(sort.Search(int(hi-lo), func(t int) bool { return bcol[lo+int64(t)] >= bj }))
			vals[b*br*bd+(i%br)*bd+(j%bd)] += a.vals[k]
		}
	}
	return NewBCSR(a.rows, a.cols, br, bd, rowptr, bcol, vals)
}

// Domain implements Matrix.
func (a *BCSR) Domain() index.Space { return index.NewSpace("D", a.cols) }

// Range implements Matrix.
func (a *BCSR) Range() index.Space { return index.NewSpace("R", a.rows) }

// Kernel implements Matrix.
func (a *BCSR) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

// buildRelations materializes the point-level row and column relations
// from the block structure.
func (a *BCSR) buildRelations() {
	a.relOnce.Do(func() {
		n := int64(len(a.vals))
		rowIdx := make([]int64, n)
		colIdx := make([]int64, n)
		bsz := a.br * a.bd
		nbr := a.rows / a.br
		for bi := int64(0); bi < nbr; bi++ {
			for b := a.rowptr[bi]; b < a.rowptr[bi+1]; b++ {
				for r := int64(0); r < a.br; r++ {
					for c := int64(0); c < a.bd; c++ {
						k := b*bsz + r*a.bd + c
						rowIdx[k] = bi*a.br + r
						colIdx[k] = a.bcol[b]*a.bd + c
					}
				}
			}
		}
		a.rowRel = dpart.NewFnRelation("K", rowIdx, index.NewSpace("R", a.rows))
		a.colRel = dpart.NewFnRelation("K", colIdx, index.NewSpace("D", a.cols))
	})
}

// RowRelation implements Matrix.
func (a *BCSR) RowRelation() dpart.Relation {
	a.buildRelations()
	return a.rowRel
}

// ColRelation implements Matrix.
func (a *BCSR) ColRelation() dpart.Relation {
	a.buildRelations()
	return a.colRel
}

// NNZ implements Matrix.
func (a *BCSR) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *BCSR) Format() string { return "BCSR" }

// BlockShape returns the (br, bd) block dimensions.
func (a *BCSR) BlockShape() (int64, int64) { return a.br, a.bd }

// blockRowOf returns the block row owning block b.
func (a *BCSR) blockRowOf(b int64) int64 {
	nbr := a.rows / a.br
	return int64(sort.Search(int(nbr), func(i int) bool { return a.rowptr[i+1] > b }))
}

// partialBlocks returns the kernel points of iv before and after its
// whole blocks [b0, b1) of bsz slots each: the partial blocks at its ends
// (possibly empty intervals).
func partialBlocks(iv index.Interval, b0, b1, bsz int64) [2]index.Interval {
	return [2]index.Interval{
		{Lo: iv.Lo, Hi: min(iv.Hi, b0*bsz-1)},
		{Lo: max(b0, b1) * bsz, Hi: iv.Hi},
	}
}

// entry returns the row and column of kernel point k.
func (a *BCSR) entry(k int64) (i, j int64) {
	bsz := a.br * a.bd
	b, w := k/bsz, k%bsz
	return a.blockRowOf(b)*a.br + w/a.bd, a.bcol[b]*a.bd + w%a.bd
}

// MultiplyAddPart implements Matrix. The whole blocks of an interval run
// the dense block loop; the partial blocks at its ends are decoded entry
// by entry.
func (a *BCSR) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	bsz := a.br * a.bd
	for _, iv := range kset.Intervals() {
		b0, b1 := (iv.Lo+bsz-1)/bsz, (iv.Hi+1)/bsz // whole blocks [b0, b1)
		for _, end := range partialBlocks(iv, b0, b1, bsz) {
			for k := end.Lo; k <= end.Hi; k++ {
				i, j := a.entry(k)
				y[i] += a.vals[k] * x[j]
			}
		}
		a.mulAddBlocks(y, x, b0, b1)
	}
}

// mulAddBlocks adds the products of blocks [b0, b1) into y, block row
// by block row, with the first block row found once. Each row of a block
// row accumulates across its blocks and updates y once.
func (a *BCSR) mulAddBlocks(y, x []float64, b0, b1 int64) {
	bsz, nbr := a.br*a.bd, a.rows/a.br
	for bi := a.blockRowOf(b0); bi < nbr && a.rowptr[bi] < b1; bi++ {
		bLo, bHi := max(a.rowptr[bi], b0), min(a.rowptr[bi+1], b1)
		if bLo >= bHi {
			continue // write no row the blocks do not reach
		}
		for r := int64(0); r < a.br; r++ {
			var sum float64
			for b := bLo; b < bHi; b++ {
				base, xo := b*bsz+r*a.bd, a.bcol[b]*a.bd
				for c := int64(0); c < a.bd; c++ {
					sum += a.vals[base+c] * x[xo+c]
				}
			}
			y[bi*a.br+r] += sum
		}
	}
}

// MultiplyAddTPart implements Matrix.
func (a *BCSR) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	bsz := a.br * a.bd
	for _, iv := range kset.Intervals() {
		b0, b1 := (iv.Lo+bsz-1)/bsz, (iv.Hi+1)/bsz
		for _, end := range partialBlocks(iv, b0, b1, bsz) {
			for k := end.Lo; k <= end.Hi; k++ {
				i, j := a.entry(k)
				y[j] += a.vals[k] * x[i]
			}
		}
		a.mulAddBlocksT(y, x, b0, b1)
	}
}

// mulAddBlocksT is mulAddBlocks for the adjoint.
func (a *BCSR) mulAddBlocksT(y, x []float64, b0, b1 int64) {
	bsz, nbr := a.br*a.bd, a.rows/a.br
	for bi := a.blockRowOf(b0); bi < nbr && a.rowptr[bi] < b1; bi++ {
		for b, bEnd := max(a.rowptr[bi], b0), min(a.rowptr[bi+1], b1); b < bEnd; b++ {
			xo, yo := bi*a.br, a.bcol[b]*a.bd
			for r := int64(0); r < a.br; r++ {
				base := b*bsz + r*a.bd
				xr := x[xo+r]
				for c := int64(0); c < a.bd; c++ {
					y[yo+c] += a.vals[base+c] * xr
				}
			}
		}
	}
}
