package sparse

import (
	"fmt"
	"strings"
	"sync"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// Auto is a row-banded composite matrix: each contiguous row band is
// stored in the format the profile model predicts fastest for that
// band's structure ("Bring Your Own Formats": the composite satisfies
// the ordinary Matrix contract, so planners and solvers cannot tell a
// tuned matrix from a hand-picked one). The composite's kernel space
// concatenates the tiles' kernel spaces in band order, and its row and
// column relations delegate to the tiles' own relations shifted into
// global coordinates — partition projection, dependence analysis, and
// the conformance matrix all work unchanged.
type Auto struct {
	rows, cols int64
	tiles      []autoTile
	knnz       int64 // total kernel size across tiles (padding included)
	nnz        int64 // total stored entries

	relOnce sync.Once
	rowRel  *dpart.FnRelation
	colRel  *dpart.FnRelation
}

// autoTile is one row band of an Auto matrix.
type autoTile struct {
	r0, r1 int64 // global row band [r0, r1)
	koff   int64 // global kernel offset of the tile's kernel space
	klen   int64 // tile kernel size
	mat    Matrix
	format string
}

// AutoSelectBands tunes each row band of a to its predicted-fastest
// storage format. starts lists the first row of every band in ascending
// order; a missing leading 0 is implied and degenerate (empty) bands are
// skipped. Matrices with no rows are returned as a single CSR-backed
// band so the result is always a usable Matrix.
func AutoSelectBands(a *CSR, starts []int64) *Auto {
	rows, cols := a.rows, a.cols
	bounds := make([]int64, 0, len(starts)+2)
	bounds = append(bounds, 0)
	for _, s := range starts {
		if s > bounds[len(bounds)-1] && s < rows {
			bounds = append(bounds, s)
		}
	}
	bounds = append(bounds, rows)

	// Pick a format per band, then coalesce adjacent bands that chose the
	// same one: a uniform pick degenerates to a single plain-format tile,
	// so the composite costs nothing when the tuner finds no structure
	// worth splitting over.
	type bandPick struct {
		r0, r1 int64
		f      string
	}
	var picks []bandPick
	var bandedCost float64
	for b := 0; b+1 < len(bounds); b++ {
		r0, r1 := bounds[b], bounds[b+1]
		if r0 >= r1 && rows > 0 {
			continue
		}
		f, cost := selectFormatCost(ProfileRows(a, r0, r1))
		bandedCost += cost
		if n := len(picks); n > 0 && picks[n-1].f == f {
			picks[n-1].r1 = r1
			continue
		}
		picks = append(picks, bandPick{r0: r0, r1: r1, f: f})
	}

	// Banding is not free: a narrow band of a wide matrix pays format
	// overheads the whole matrix amortizes (DIA's per-diagonal arrays
	// span the full column width, ELL pads to the band's own max row
	// length). Compare the composite's total predicted cost against the
	// best single whole-matrix format and keep whichever is cheaper —
	// uniform structure then gets the undivided layout it wants, while
	// genuinely mixed structure keeps its per-band formats.
	if len(picks) > 0 {
		if f, cost := selectFormatCost(ProfileRows(a, 0, rows)); cost < bandedCost {
			picks = []bandPick{{r0: 0, r1: rows, f: f}}
		}
	}

	au := &Auto{rows: rows, cols: cols}
	for _, p := range picks {
		r0, r1, f := p.r0, p.r1, p.f
		mat := Convert(bandCSR(a, r0, r1), f)
		klen := mat.Kernel().Size()
		au.tiles = append(au.tiles, autoTile{
			r0: r0, r1: r1, koff: au.knnz, klen: klen, mat: mat, format: f,
		})
		au.knnz += klen
		au.nnz += mat.NNZ()
	}
	if len(au.tiles) == 0 {
		// Zero-row matrix: keep one empty CSR tile so the relations and
		// kernels are well defined.
		mat := bandCSR(a, 0, rows)
		au.tiles = append(au.tiles, autoTile{mat: mat, format: "CSR"})
	}
	return au
}

// AutoSelect tunes a with nbands equal row bands (clamped to the row
// count). nbands should match the piece count the planner partitions
// the operator's range into, so each piece gets the format its local
// structure wants; AddOperatorAuto derives that automatically.
func AutoSelect(a *CSR, nbands int) *Auto {
	if nbands < 1 {
		nbands = 1
	}
	if int64(nbands) > a.rows && a.rows > 0 {
		nbands = int(a.rows)
	}
	starts := make([]int64, 0, nbands)
	for b := 0; b < nbands; b++ {
		starts = append(starts, a.rows*int64(b)/int64(nbands))
	}
	return AutoSelectBands(a, starts)
}

// bandCSR extracts rows [r0, r1) of a as a standalone CSR matrix over
// the same column space. The column-index and value arrays are shared
// sub-slices (no copy); only the band's row pointers are rebased.
func bandCSR(a *CSR, r0, r1 int64) *CSR {
	lo, hi := a.rowptr[r0], a.rowptr[r1]
	rp := make([]int64, r1-r0+1)
	for i := range rp {
		rp[i] = a.rowptr[r0+int64(i)] - lo
	}
	return NewCSR(r1-r0, a.cols, rp, a.colIdx[lo:hi:hi], a.vals[lo:hi:hi])
}

// SelectedFormats reports the chosen format of every band, in band
// order, as "format[r0:r1)" strings — what mmsolve -format auto prints.
func (a *Auto) SelectedFormats() []string {
	out := make([]string, len(a.tiles))
	for i, t := range a.tiles {
		out[i] = fmt.Sprintf("%s[%d:%d)", t.format, t.r0, t.r1)
	}
	return out
}

// String summarizes the tiling.
func (a *Auto) String() string {
	return "Auto(" + strings.Join(a.SelectedFormats(), " ") + ")"
}

// Domain implements Matrix.
func (a *Auto) Domain() index.Space { return index.NewSpace("D", a.cols) }

// Range implements Matrix.
func (a *Auto) Range() index.Space { return index.NewSpace("R", a.rows) }

// Kernel implements Matrix.
func (a *Auto) Kernel() index.Space { return index.NewSpace("K", a.knnz) }

// NNZ implements Matrix.
func (a *Auto) NNZ() int64 { return a.nnz }

// Format implements Matrix.
func (a *Auto) Format() string { return "Auto" }

// buildRelations materializes the global row and column relations by
// querying each tile's own relations point by point and shifting rows
// into the global space. Padding kernel points whose tile-local image is
// empty (DIA and ELL fill) are clipped to the band's first row — their
// stored value is zero, so the extra conservative dependence is the only
// effect, and the planner's image intersection clips it out of the write
// set anyway.
func (a *Auto) buildRelations() {
	a.relOnce.Do(func() {
		rowArr := make([]int64, a.knnz)
		colArr := make([]int64, a.knnz)
		for _, t := range a.tiles {
			rr, cr := t.mat.RowRelation(), t.mat.ColRelation()
			for k := int64(0); k < t.klen; k++ {
				pt := index.Span(k, k)
				if img := rr.Image(pt); !img.Empty() {
					rowArr[t.koff+k] = t.r0 + img.Bounds().Lo
				} else {
					rowArr[t.koff+k] = t.r0
				}
				if img := cr.Image(pt); !img.Empty() {
					colArr[t.koff+k] = img.Bounds().Lo
				}
			}
		}
		a.rowRel = dpart.NewFnRelation("K", rowArr, index.NewSpace("R", a.rows))
		a.colRel = dpart.NewFnRelation("K", colArr, index.NewSpace("D", a.cols))
	})
}

// RowRelation implements Matrix.
func (a *Auto) RowRelation() dpart.Relation {
	a.buildRelations()
	return a.rowRel
}

// ColRelation implements Matrix.
func (a *Auto) ColRelation() dpart.Relation {
	a.buildRelations()
	return a.colRel
}

// localKset clips a global kernel set to one tile and rebases it into
// the tile's kernel space.
func (t *autoTile) localKset(kset index.IntervalSet) index.IntervalSet {
	lo, hi := t.koff, t.koff+t.klen-1
	var out index.IntervalSet
	kset.EachInterval(func(iv index.Interval) {
		if iv.Hi < lo || iv.Lo > hi {
			return
		}
		l, h := iv.Lo, iv.Hi
		if l < lo {
			l = lo
		}
		if h > hi {
			h = hi
		}
		out.AddInterval(index.Interval{Lo: l - t.koff, Hi: h - t.koff})
	})
	return out
}

// MultiplyAddPart implements Matrix.
func (a *Auto) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	CheckShapes(a, y, x)
	for i := range a.tiles {
		t := &a.tiles[i]
		if local := t.localKset(kset); !local.Empty() {
			t.mat.MultiplyAddPart(y[t.r0:t.r1], x, local)
		}
	}
}

// MultiplyAddTPart implements Matrix.
func (a *Auto) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	checkShapesT(a, y, x)
	for i := range a.tiles {
		t := &a.tiles[i]
		if local := t.localKset(kset); !local.Empty() {
			t.mat.MultiplyAddTPart(y, x[t.r0:t.r1], local)
		}
	}
}
