package sparse

import (
	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// VirtualTile is a structure-only matrix for simulator-scale experiments:
// it declares that nnz stored entries read one contiguous block of its
// domain and write one contiguous block of its range, with no physical
// entries at all. The Section 6.3 load-balancing experiment cuts the
// stencil matrix into 64 × 64 such tiles (a row-strip × column-strip
// decomposition in which every tile is one dense grid block).
//
// VirtualTile can only be used with virtual planners; its compute kernels
// panic.
type VirtualTile struct {
	domain, rangeSz int64
	nnz             int64
	rowRel, colRel  *dpart.BlockRelation
}

// NewVirtualTile builds a tile with the given component sizes, entry
// count, and the input/output blocks it touches.
func NewVirtualTile(domain, rangeSize, nnz int64, inBlock, outBlock index.Interval) *VirtualTile {
	return &VirtualTile{
		domain: domain, rangeSz: rangeSize, nnz: nnz,
		rowRel: dpart.NewBlockRelation("K", nnz, outBlock, "R", rangeSize),
		colRel: dpart.NewBlockRelation("K", nnz, inBlock, "D", domain),
	}
}

// Domain implements Matrix.
func (a *VirtualTile) Domain() index.Space { return a.colRel.Right() }

// Range implements Matrix.
func (a *VirtualTile) Range() index.Space { return a.rowRel.Right() }

// Kernel implements Matrix.
func (a *VirtualTile) Kernel() index.Space { return index.NewSpace("K", a.nnz) }

// RowRelation implements Matrix.
func (a *VirtualTile) RowRelation() dpart.Relation { return a.rowRel }

// ColRelation implements Matrix.
func (a *VirtualTile) ColRelation() dpart.Relation { return a.colRel }

// NNZ implements Matrix.
func (a *VirtualTile) NNZ() int64 { return a.nnz }

// Format implements Matrix.
func (a *VirtualTile) Format() string { return "VirtualTile" }

// MultiplyAddPart implements Matrix.
func (a *VirtualTile) MultiplyAddPart(y, x []float64, kset index.IntervalSet) {
	panic("sparse: VirtualTile is structure-only; use a virtual planner")
}

// MultiplyAddTPart implements Matrix.
func (a *VirtualTile) MultiplyAddTPart(y, x []float64, kset index.IntervalSet) {
	panic("sparse: VirtualTile is structure-only; use a virtual planner")
}
