package sparse

import (
	"sort"
	"sync"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// BCSC is the column-major dual of BCSR: dense br × bd blocks ordered by
// block column through colptr: D0 → [K0, K0], with brow: K0 → R0 storing
// block rows.
type BCSC struct {
	rows, cols int64
	br, bd     int64
	colptr     []int64 // len cols/bd + 1, in block units
	brow       []int64 // block row of each block
	vals       []float64

	relOnce        sync.Once
	rowRel, colRel *dpart.FnRelation
}

// NewBCSC wraps block storage (retained, not copied) as a rows × cols
// matrix with br × bd blocks. Blocks are stored row-major internally,
// back to back, in block-column order.
func NewBCSC(rows, cols, br, bd int64, colptr, brow []int64, vals []float64) *BCSC {
	if rows%br != 0 || cols%bd != 0 {
		panic("sparse: BCSC dimensions must be multiples of the block shape")
	}
	if int64(len(colptr)) != cols/bd+1 {
		panic("sparse: BCSC colptr must have cols/bd+1 entries")
	}
	if int64(len(vals)) != int64(len(brow))*br*bd {
		panic("sparse: BCSC vals must have nblocks*br*bd entries")
	}
	return &BCSC{
		rows: rows, cols: cols, br: br, bd: bd,
		colptr: colptr, brow: brow, vals: vals,
	}
}

// BCSCFromCSR converts a CSR matrix to BCSC with the given block shape.
func BCSCFromCSR(a *CSR, br, bd int64) *BCSC {
	if a.rows%br != 0 || a.cols%bd != 0 {
		panic("sparse: BCSC block shape must divide the matrix dimensions")
	}
	nbc := a.cols / bd
	blockRows := make([][]int64, nbc)
	for i := int64(0); i < a.rows; i++ {
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			bj := a.colIdx[k] / bd
			blockRows[bj] = append(blockRows[bj], i/br)
		}
	}
	colptr := make([]int64, nbc+1)
	var brow []int64
	for bj := int64(0); bj < nbc; bj++ {
		rs := blockRows[bj]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		colptr[bj] = int64(len(brow))
		for i, r := range rs {
			if i == 0 || r != rs[i-1] {
				brow = append(brow, r)
			}
		}
	}
	colptr[nbc] = int64(len(brow))
	vals := make([]float64, int64(len(brow))*br*bd)
	for i := int64(0); i < a.rows; i++ {
		bi := i / br
		for k := a.rowptr[i]; k < a.rowptr[i+1]; k++ {
			j := a.colIdx[k]
			bj := j / bd
			lo, hi := colptr[bj], colptr[bj+1]
			b := lo + int64(sort.Search(int(hi-lo), func(t int) bool { return brow[lo+int64(t)] >= bi }))
			vals[b*br*bd+(i%br)*bd+(j%bd)] += a.vals[k]
		}
	}
	return NewBCSC(a.rows, a.cols, br, bd, colptr, brow, vals)
}

// Domain implements Matrix.
func (a *BCSC) Domain() index.Space { return index.NewSpace("D", a.cols) }

// Range implements Matrix.
func (a *BCSC) Range() index.Space { return index.NewSpace("R", a.rows) }

// Kernel implements Matrix.
func (a *BCSC) Kernel() index.Space { return index.NewSpace("K", int64(len(a.vals))) }

func (a *BCSC) buildRelations() {
	a.relOnce.Do(func() {
		n := int64(len(a.vals))
		rowIdx := make([]int64, n)
		colIdx := make([]int64, n)
		bsz := a.br * a.bd
		nbc := a.cols / a.bd
		for bj := int64(0); bj < nbc; bj++ {
			for b := a.colptr[bj]; b < a.colptr[bj+1]; b++ {
				for r := int64(0); r < a.br; r++ {
					for c := int64(0); c < a.bd; c++ {
						k := b*bsz + r*a.bd + c
						rowIdx[k] = a.brow[b]*a.br + r
						colIdx[k] = bj*a.bd + c
					}
				}
			}
		}
		a.rowRel = dpart.NewFnRelation("K", rowIdx, index.NewSpace("R", a.rows))
		a.colRel = dpart.NewFnRelation("K", colIdx, index.NewSpace("D", a.cols))
	})
}

// RowRelation implements Matrix.
func (a *BCSC) RowRelation() dpart.Relation {
	a.buildRelations()
	return a.rowRel
}

// ColRelation implements Matrix.
func (a *BCSC) ColRelation() dpart.Relation {
	a.buildRelations()
	return a.colRel
}

// NNZ implements Matrix.
func (a *BCSC) NNZ() int64 { return int64(len(a.vals)) }

// Format implements Matrix.
func (a *BCSC) Format() string { return "BCSC" }

// BlockShape returns the (br, bd) block dimensions.
func (a *BCSC) BlockShape() (int64, int64) { return a.br, a.bd }

// blockColOf returns the block column owning block b.
func (a *BCSC) blockColOf(b int64) int64 {
	nbc := a.cols / a.bd
	return int64(sort.Search(int(nbc), func(j int) bool { return a.colptr[j+1] > b }))
}

// entry returns the row and column of kernel point k.
func (a *BCSC) entry(k int64) (i, j int64) {
	bsz := a.br * a.bd
	b, w := k/bsz, k%bsz
	return a.brow[b]*a.br + w/a.bd, a.blockColOf(b)*a.bd + w%a.bd
}

// MultiplyAddPart implements Matrix. The whole blocks of an interval run
// the dense block loop; the partial blocks at its ends are decoded entry
// by entry.
func (a *BCSC) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
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

// mulAddBlocks adds the products of blocks [b0, b1) into y, block
// column by block column, with the first block column found once.
func (a *BCSC) mulAddBlocks(y, x []float64, b0, b1 int64) {
	bsz, nbc := a.br*a.bd, a.cols/a.bd
	for bj := a.blockColOf(b0); bj < nbc && a.colptr[bj] < b1; bj++ {
		xs := x[bj*a.bd:][:a.bd]
		for b, bEnd := max(a.colptr[bj], b0), min(a.colptr[bj+1], b1); b < bEnd; b++ {
			ys, blk := y[a.brow[b]*a.br:][:a.br], a.vals[b*bsz:][:bsz]
			for r := range ys {
				var sum float64
				for c, v := range blk[int64(r)*a.bd:][:a.bd] {
					sum += v * xs[c]
				}
				ys[r] += sum
			}
		}
	}
}

// MultiplyAddTPart implements Matrix.
func (a *BCSC) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
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
func (a *BCSC) mulAddBlocksT(y, x []float64, b0, b1 int64) {
	bsz, nbc := a.br*a.bd, a.cols/a.bd
	for bj := a.blockColOf(b0); bj < nbc && a.colptr[bj] < b1; bj++ {
		for b, bEnd := max(a.colptr[bj], b0), min(a.colptr[bj+1], b1); b < bEnd; b++ {
			xo, yo := a.brow[b]*a.br, bj*a.bd
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
