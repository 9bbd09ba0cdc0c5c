package sparse

import (
	"math/rand"
	"testing"

	"kdrsolvers/internal/index"
)

// allFormats is every Convert target, the adaptive composite included.
func allFormats() []string {
	return append(append([]string(nil), Formats...), "Auto")
}

// TestDegenerateShapes pushes the shapes that historically break sparse
// conversion code — single rows and columns, odd dimensions (the 2×2
// block formats used to panic here), fully empty matrices, and matrices
// with empty rows — through every storage format, checking SpMV and
// SpMVᵀ against the dense reference and checking that partial kernel
// products (two half-kernel sweeps) sum to the full product.
func TestDegenerateShapes(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int64
		coords     []Coord
	}{
		{"1x1", 1, 1, []Coord{{Row: 0, Col: 0, Val: 2.5}}},
		{"1x1_zero", 1, 1, nil},
		{"1x7_row_vector", 1, 7, []Coord{
			{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 3, Val: -2}, {Row: 0, Col: 6, Val: 3}}},
		{"7x1_col_vector", 7, 1, []Coord{
			{Row: 0, Col: 0, Val: 1}, {Row: 3, Col: 0, Val: -2}, {Row: 6, Col: 0, Val: 3}}},
		{"7x7_odd_square", 7, 7, []Coord{
			{Row: 0, Col: 0, Val: 4}, {Row: 1, Col: 2, Val: -1}, {Row: 3, Col: 3, Val: 2},
			{Row: 4, Col: 6, Val: 1.5}, {Row: 6, Col: 0, Val: -3}, {Row: 6, Col: 6, Val: 7}}},
		{"5x8_odd_by_even", 5, 8, []Coord{
			{Row: 0, Col: 7, Val: 1}, {Row: 2, Col: 0, Val: 2}, {Row: 2, Col: 4, Val: -1},
			{Row: 4, Col: 3, Val: 0.5}}},
		{"8x5_even_by_odd", 8, 5, []Coord{
			{Row: 0, Col: 0, Val: 1}, {Row: 3, Col: 4, Val: 2}, {Row: 7, Col: 2, Val: -2}}},
		{"6x6_zero_matrix", 6, 6, nil},
		{"8x8_empty_rows", 8, 8, []Coord{
			{Row: 2, Col: 1, Val: 1}, {Row: 2, Col: 5, Val: -1}, {Row: 5, Col: 5, Val: 2}}},
		{"3x9_one_dense_row", 3, 9, []Coord{
			{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: 3},
			{Row: 1, Col: 3, Val: 4}, {Row: 1, Col: 4, Val: 5}, {Row: 1, Col: 5, Val: 6},
			{Row: 1, Col: 6, Val: 7}, {Row: 1, Col: 7, Val: 8}, {Row: 1, Col: 8, Val: 9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := CSRFromCoords(tc.rows, tc.cols, tc.coords)
			dense := ToDense(a)
			r := rand.New(rand.NewSource(11 * (tc.rows + tc.cols)))
			x := make([]float64, tc.cols)
			w := make([]float64, tc.rows)
			for i := range x {
				x[i] = r.Float64()*2 - 1
			}
			for i := range w {
				w[i] = r.Float64()*2 - 1
			}
			wantY, wantZ := refProducts(dense, tc.rows, tc.cols, x, w)

			for _, f := range allFormats() {
				t.Run(f, func(t *testing.T) {
					m := Convert(a, f)
					if rows, cols := Dims(m); rows != tc.rows || cols != tc.cols {
						t.Fatalf("dims changed: %dx%d, want %dx%d", rows, cols, tc.rows, tc.cols)
					}
					y := make([]float64, tc.rows)
					z := make([]float64, tc.cols)
					SpMV(m, y, x)
					if d := maxAbs(y, wantY); d > 1e-12 {
						t.Errorf("SpMV off dense reference by %g", d)
					}
					SpMVT(m, z, w)
					if d := maxAbs(z, wantZ); d > 1e-12 {
						t.Errorf("SpMVT off dense reference by %g", d)
					}

					// Partial products must tile: two half-kernel sweeps
					// reproduce the full product.
					klen := m.Kernel().Size()
					if klen == 0 {
						return
					}
					for i := range y {
						y[i] = 0
					}
					for i := range z {
						z[i] = 0
					}
					if mid := klen / 2; mid > 0 && mid < klen {
						m.MultiplyAddPart(y, x, index.Span(0, mid-1))
						m.MultiplyAddPart(y, x, index.Span(mid, klen-1))
						m.MultiplyAddTPart(z, w, index.Span(0, mid-1))
						m.MultiplyAddTPart(z, w, index.Span(mid, klen-1))
					} else {
						m.MultiplyAddPart(y, x, index.Span(0, klen-1))
						m.MultiplyAddTPart(z, w, index.Span(0, klen-1))
					}
					if d := maxAbs(y, wantY); d > 1e-12 {
						t.Errorf("split MultiplyAddPart off dense reference by %g", d)
					}
					if d := maxAbs(z, wantZ); d > 1e-12 {
						t.Errorf("split MultiplyAddTPart off dense reference by %g", d)
					}
				})
			}
		})
	}
}

// TestBlockFormatsOddDims is the direct regression for the conversion
// panic: BCSR/BCSC conversion of odd-dimension matrices used to die on
// "block shape must divide the matrix dimensions".
func TestBlockFormatsOddDims(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, sh := range []struct{ rows, cols int64 }{{7, 7}, {7, 4}, {4, 7}, {1, 1}, {1, 6}, {9, 1}} {
		a := randomCSRMatrix(r, sh.rows, sh.cols, 0.3)
		for _, f := range []string{"BCSR", "BCSC"} {
			m := Convert(a, f) // must not panic
			if d := maxAbs(ToDense(m), ToDense(a)); d != 0 {
				t.Errorf("%s %dx%d changed values by %g", f, sh.rows, sh.cols, d)
			}
		}
	}
}

// TestDuplicateCOOEntries checks the assembly paths against repeated
// coordinates: a COO holding duplicates applies them additively, and
// every coalescing conversion sums them into one stored entry.
func TestDuplicateCOOEntries(t *testing.T) {
	coo := NewCOO(3, 3,
		[]int64{0, 0, 1, 2, 2, 2},
		[]int64{0, 0, 1, 2, 2, 0},
		[]float64{1, 2, 3, 4, -1, 5})
	want := []float64{
		3, 0, 0,
		0, 3, 0,
		5, 0, 3,
	}
	if d := maxAbs(ToDense(coo), want); d != 0 {
		t.Fatalf("duplicate COO product off by %g", d)
	}
	back := CSRFromMatrix(coo)
	if back.NNZ() != 4 {
		t.Errorf("CSRFromMatrix kept %d entries, want 4 coalesced", back.NNZ())
	}
	if d := maxAbs(ToDense(back), want); d != 0 {
		t.Errorf("coalesced round trip changed values by %g", d)
	}

	dup := []Coord{{Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 4}}
	if a := CSRFromCoords(3, 3, dup); a.NNZ() != 2 {
		t.Errorf("CSRFromCoords kept %d entries, want 2", a.NNZ())
	}
	if a := CSCFromCoords(3, 3, dup); a.NNZ() != 2 {
		t.Errorf("CSCFromCoords kept %d entries, want 2", a.NNZ())
	}

	// Every format built from the coalesced matrix agrees with the COO.
	x := []float64{0.5, -1, 2}
	wantY := make([]float64, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			wantY[i] += want[i*3+j] * x[j]
		}
	}
	for _, f := range allFormats() {
		y := make([]float64, 3)
		SpMV(Convert(back, f), y, x)
		if d := maxAbs(y, wantY); d > 1e-12 {
			t.Errorf("%s from duplicate-built CSR off by %g", f, d)
		}
	}
}

// TestProfileFeatures pins the structural profile on a hand-built band
// matrix so the tuner's inputs stay trustworthy.
func TestProfileFeatures(t *testing.T) {
	// 4×4 tridiagonal with one empty row (row 2).
	a := CSRFromCoords(4, 4, []Coord{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1},
		{Row: 3, Col: 2, Val: -1}, {Row: 3, Col: 3, Val: 2},
	})
	p := ProfileCSR(a)
	if p.Rows != 4 || p.Cols != 4 || p.NNZ != 7 {
		t.Fatalf("shape features: %+v", p)
	}
	if p.Bandwidth != 1 {
		t.Errorf("Bandwidth = %d, want 1", p.Bandwidth)
	}
	if p.Diags != 3 {
		t.Errorf("Diags = %d, want 3", p.Diags)
	}
	if p.EmptyRows != 1 {
		t.Errorf("EmptyRows = %d, want 1", p.EmptyRows)
	}
	if p.MaxRowLen != 3 {
		t.Errorf("MaxRowLen = %d, want 3", p.MaxRowLen)
	}
	if p.DiagFilled != 3 {
		t.Errorf("DiagFilled = %d, want 3", p.DiagFilled)
	}

	// Empty band: every feature must stay finite and zero-valued.
	if pe := ProfileRows(a, 2, 2); pe.Rows != 0 || pe.NNZ != 0 {
		t.Errorf("empty band profile: %+v", pe)
	}
}

// TestSelectFormatSane checks the tuner returns a convertible format and
// picks the obviously right one on an extreme structure: a large banded
// matrix with fully occupied diagonals is DIA's best case.
func TestSelectFormatSane(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, sh := range []struct{ rows, cols int64 }{{1, 1}, {16, 16}, {7, 31}, {40, 3}} {
		a := randomCSRMatrix(r, sh.rows, sh.cols, 0.2)
		f, _ := selectFormatCost(ProfileCSR(a))
		found := false
		for _, g := range Formats {
			found = found || f == g
		}
		if !found {
			t.Errorf("selectFormatCost returned unknown format %q", f)
		}
	}

	tri := Laplacian2D(64, 1) // pure tridiagonal, all three diagonals dense
	if f, _ := selectFormatCost(ProfileCSR(tri)); f != "DIA" {
		t.Errorf("tridiagonal selectFormatCost = %s, want DIA", f)
	}
}

// TestAutoSelectBands checks the composite against its source on a
// structurally mixed matrix: a dense block atop a diagonal tail, with
// band boundaries that do not align with the structure change.
func TestAutoSelectBands(t *testing.T) {
	var coords []Coord
	for i := int64(0); i < 64; i++ { // dense 64×64 head
		for j := int64(0); j < 64; j++ {
			coords = append(coords, Coord{Row: i, Col: j, Val: float64(i*64+j) + 0.5})
		}
	}
	for i := int64(64); i < 512; i++ { // tridiagonal tail
		coords = append(coords, Coord{Row: i, Col: i, Val: 4})
		coords = append(coords, Coord{Row: i, Col: i - 1, Val: -1})
		if i+1 < 512 {
			coords = append(coords, Coord{Row: i, Col: i + 1, Val: -1})
		}
	}
	a := CSRFromCoords(512, 512, coords)
	// Band boundaries deliberately misaligned with the structure change
	// at row 64: the head band must still get a dense-friendly format and
	// the tail bands a banded one, and the tiles' kernel offsets,
	// clipped relations, and split kernels must all line up.
	au := AutoSelectBands(a, []int64{0, 100, 300, 480})
	if got := len(au.SelectedFormats()); got < 2 {
		t.Fatalf("got %d band(s) %v, want a multi-format tiling", got, au.SelectedFormats())
	}
	if au.NNZ() < a.NNZ() {
		t.Errorf("composite NNZ %d < source %d", au.NNZ(), a.NNZ())
	}
	if d := maxAbs(ToDense(au), ToDense(a)); d != 0 {
		t.Errorf("composite differs from source by %g", d)
	}
	// The relations must cover the full kernel space.
	if au.RowRelation().Left().Size() != au.Kernel().Size() {
		t.Errorf("row relation covers %d of %d kernel points",
			au.RowRelation().Left().Size(), au.Kernel().Size())
	}
}
