// Package sparse implements the KDRSolvers view of sparse matrix storage
// formats (Section 3 of the paper).
//
// A sparse R × D matrix is a collection of numbers indexed by a kernel
// space K together with a column relation col ⊆ K × D and a row relation
// row ⊆ K × R (equation 2). Every storage format in Figure 3 of the paper
// is provided — Dense, COO, CSR, CSC, ELL, ELL′, DIA, BCSR, and BCSC —
// each exposing its row and column relations through the Matrix interface
// so that the universal co-partitioning operators of package dpart apply
// uniformly, including to user-defined formats implemented outside this
// package.
//
// Each format has one computational kernel per direction: the in-place
// multiply-add (y ← Ax + y, or y ← Aᵀx + y), the primitive into which
// Section 4.1 decomposes all matrix-vector products on multi-operator
// systems, restricted to a set of kernel points. Partitioning K is how
// work is split, so the whole product (SpMV, SpMVT) is the restriction to
// all of K, and a format never keeps a second, whole-matrix kernel.
// Formats with implicit coordinates are interval-native: they decode a
// row, column, diagonal or block once per interval and run a tight loop
// within it.
//
// The package also provides the stencil matrix generators used throughout
// the paper's evaluation: 3-point 1D, 5-point 2D, 7-point 3D, and 27-point
// 3D Laplacians on Cartesian grids.
package sparse
