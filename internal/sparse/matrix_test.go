package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
)

// randomCoords generates a random sparse matrix as coordinates with no
// duplicate positions.
func randomCoords(r *rand.Rand, rows, cols int64) []Coord {
	n := r.Intn(int(rows*cols)/2 + 1)
	seen := make(map[[2]int64]bool)
	var out []Coord
	for i := 0; i < n; i++ {
		pos := [2]int64{r.Int63n(rows), r.Int63n(cols)}
		if seen[pos] {
			continue
		}
		seen[pos] = true
		out = append(out, Coord{Row: pos[0], Col: pos[1], Val: r.NormFloat64()})
	}
	return out
}

// denseFromCoords builds the reference dense array.
func denseFromCoords(rows, cols int64, coords []Coord) []float64 {
	out := make([]float64, rows*cols)
	for _, c := range coords {
		out[c.Row*cols+c.Col] += c.Val
	}
	return out
}

func densesEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// denseProducts returns the reference products y = A·x and yt = Aᵀ·xt of
// a dense row-major rows × cols array.
func denseProducts(dense []float64, rows, cols int64, x, xt []float64) (y, yt []float64) {
	y = make([]float64, rows)
	yt = make([]float64, cols)
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			y[i] += dense[i*cols+j] * x[j]
			yt[j] += dense[i*cols+j] * xt[i]
		}
	}
	return y, yt
}

func randomVec(r *rand.Rand, n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// randomKernelPieces splits [0, n) into runs — single points, short runs
// that start and end anywhere (mid-row, mid-diagonal, mid-block, on
// padding slots) and long runs across many such boundaries — and deals
// the runs at random to pieces, so a piece is a set of several disjoint
// intervals.
func randomKernelPieces(r *rand.Rand, n int64, pieces int) []index.IntervalSet {
	out := make([]index.IntervalSet, pieces)
	for lo := int64(0); lo < n; {
		run := int64(1)
		switch r.Intn(3) {
		case 1:
			run = r.Int63n(4) + 1
		case 2:
			run = r.Int63n(n) + 1
		}
		hi := min(lo+run, n) - 1
		out[r.Intn(pieces)].AddInterval(index.Interval{Lo: lo, Hi: hi})
		lo = hi + 1
	}
	return out
}

// writesConfined runs kernel over kset on a vector of n negative zeros
// and reports whether every entry outside the span of rel's image of each
// interval of kset kept its sign bit. A kernel that adds even a zero to
// an entry beyond its points' span would race with that entry's owner
// when pieces run concurrently. (Within the span CSR adds the zero sums
// of empty rows, so only the span is checked.)
func writesConfined(n int64, rel dpart.Relation, kset index.IntervalSet, kernel func(y []float64)) bool {
	var allowed index.IntervalSet
	kset.EachInterval(func(iv index.Interval) {
		if img := rel.Image(index.NewIntervalSet(iv)); !img.Empty() {
			allowed.AddInterval(img.Bounds())
		}
	})
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Copysign(0, -1)
	}
	kernel(y)
	for i, v := range y {
		if !allowed.Contains(int64(i)) && !(v == 0 && math.Signbit(v)) {
			return false
		}
	}
	return true
}

// buildAll constructs the same matrix in every storage format.
func buildAll(rows, cols int64, coords []Coord) []Matrix {
	csr := CSRFromCoords(rows, cols, coords)
	ms := []Matrix{
		csr,
		COOFromCoords(rows, cols, coords),
		CSCFromCoords(rows, cols, coords),
		ELLFromCSR(csr),
		ELLPrimeFromCSC(CSCFromCSR(csr)),
		DIAFromCSR(csr),
		DenseFromMatrix(csr),
	}
	if rows%2 == 0 && cols%2 == 0 {
		ms = append(ms, BCSRFromCSR(csr, 2, 2), BCSCFromCSR(csr, 2, 2))
	}
	return ms
}

func TestQuickFormatEquivalence(t *testing.T) {
	// Property (Figure 3): every storage format defines the same linear
	// transformation, for both A·x and Aᵀ·x.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 * (r.Int63n(6) + 1)
		cols := 2 * (r.Int63n(6) + 1)
		coords := randomCoords(r, rows, cols)
		want := denseFromCoords(rows, cols, coords)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		xt := make([]float64, rows)
		for i := range xt {
			xt[i] = r.NormFloat64()
		}
		wy, wyt := denseProducts(want, rows, cols, x, xt)
		for _, m := range buildAll(rows, cols, coords) {
			if !densesEqual(ToDense(m), want, 1e-12) {
				t.Logf("%s dense mismatch (seed %d)", m.Format(), seed)
				return false
			}
			y := make([]float64, rows)
			SpMV(m, y, x)
			if !densesEqual(y, wy, 1e-12) {
				t.Logf("%s SpMV mismatch (seed %d)", m.Format(), seed)
				return false
			}
			yt := make([]float64, cols)
			SpMVT(m, yt, xt)
			if !densesEqual(yt, wyt, 1e-12) {
				t.Logf("%s SpMVT mismatch (seed %d)", m.Format(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartitionedMultiplyAdd(t *testing.T) {
	// Property (Section 3.1): splitting the kernel space into any
	// partition and summing the per-piece restricted multiply-adds gives
	// the dense reference product, for every format and both directions,
	// and each piece writes only within the rows (columns, for the
	// adjoint) its relations map its intervals to. Shapes include odd ones, and pieces are random
	// multi-interval sets cutting rows, diagonals, blocks and padding.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := r.Int63n(9)+1, r.Int63n(9)+1
		coords := randomCoords(r, rows, cols)
		x, xt := randomVec(r, cols), randomVec(r, rows)
		wy, wyt := denseProducts(denseFromCoords(rows, cols, coords), rows, cols, x, xt)
		csr := CSRFromCoords(rows, cols, coords)
		ms := append(buildAll(rows, cols, coords), AutoSelect(csr, 3))
		if rows%3 == 0 && cols%2 == 0 {
			ms = append(ms, BCSRFromCSR(csr, 3, 2), BCSCFromCSR(csr, 3, 2))
		}
		for _, m := range ms {
			got := make([]float64, rows)
			gotT := make([]float64, cols)
			for _, kset := range randomKernelPieces(r, m.Kernel().Size(), r.Intn(4)+1) {
				m.MultiplyAddPart(got, x, kset)
				m.MultiplyAddTPart(gotT, xt, kset)
				if !writesConfined(rows, m.RowRelation(), kset,
					func(y []float64) { m.MultiplyAddPart(y, x, kset) }) ||
					!writesConfined(cols, m.ColRelation(), kset,
						func(y []float64) { m.MultiplyAddTPart(y, xt, kset) }) {
					t.Logf("%s piece %v writes outside its relation image (seed %d)",
						m.Format(), kset, seed)
					return false
				}
			}
			if !densesEqual(got, wy, 1e-12) || !densesEqual(gotT, wyt, 1e-12) {
				t.Logf("%s partitioned multiply-add mismatch (seed %d, %dx%d)",
					m.Format(), seed, rows, cols)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSpMVCSRBitwiseRowSums pins SpMV on CSR to the plain row-sum loop,
// bit for bit: the exact iteration count of the bandwidth-bound benchmark
// solve and serve.HostResidual both rest on it.
func TestSpMVCSRBitwiseRowSums(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, a := range []*CSR{
		Laplacian2D(33, 17),
		randomCSRMatrix(r, 57, 41, 0.1),
		CSRFromCoords(6, 4, []Coord{{2, 1, 3.5}, {2, 3, -1}, {4, 0, 2}}), // empty leading and trailing rows
		CSRFromCoords(3, 3, nil),
	} {
		rows, cols := Dims(a)
		x := randomVec(r, cols)
		rp, ci, v := a.RowPtr(), a.ColIdx(), a.Vals()
		want := make([]float64, rows)
		for i := range want {
			var sum float64
			for k := rp[i]; k < rp[i+1]; k++ {
				sum += v[k] * x[ci[k]]
			}
			want[i] += sum
		}
		got := make([]float64, rows)
		for i := range got {
			got[i] = math.NaN() // SpMV overwrites
		}
		SpMV(a, got, x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d: SpMV y[%d] = %v, row-sum loop %v", rows, cols, i, got[i], want[i])
			}
		}
	}
}

func TestQuickRelationsMatchEntries(t *testing.T) {
	// Property: for every format, the row/col relations agree with where
	// the kernels actually read and write — Image of the full kernel
	// covers exactly the rows/cols with stored entries (padding formats
	// may cover more rows/cols, but never fewer).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 * (r.Int63n(5) + 1)
		cols := 2 * (r.Int63n(5) + 1)
		coords := randomCoords(r, rows, cols)
		if len(coords) == 0 {
			return true
		}
		var wantRows, wantCols []int64
		for _, c := range coords {
			wantRows = append(wantRows, c.Row)
			wantCols = append(wantCols, c.Col)
		}
		rset := index.FromPoints(wantRows)
		cset := index.FromPoints(wantCols)
		for _, m := range buildAll(rows, cols, coords) {
			full := m.Kernel().Set
			if !m.RowRelation().Image(full).ContainsSet(rset) {
				t.Logf("%s row relation misses rows (seed %d)", m.Format(), seed)
				return false
			}
			if !m.ColRelation().Image(full).ContainsSet(cset) {
				t.Logf("%s col relation misses cols (seed %d)", m.Format(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoPartitioningSoundness(t *testing.T) {
	// The paper's central soundness claim: given a disjoint partition P of
	// R, each piece y_c of y = Ax is computable from only the kernel piece
	// row[R→K][P](c) and the domain piece col[K→D][row[R→K][P]](c).
	// We verify by masking: zero out x outside the derived domain piece,
	// run the restricted multiply-add, and compare y on P(c).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 * (r.Int63n(5) + 1)
		cols := 2 * (r.Int63n(5) + 1)
		coords := randomCoords(r, rows, cols)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for _, m := range buildAll(rows, cols, coords) {
			want := make([]float64, rows)
			SpMV(m, want, x)
			pieces := r.Intn(3) + 1
			rp := index.EqualPartition(m.Range(), pieces)
			kp := dpart.RowRToK(m.RowRelation(), rp)
			dp := dpart.ColKToD(m.ColRelation(), kp)
			for c := 0; c < pieces; c++ {
				masked := make([]float64, cols)
				dp.Piece(c).Each(func(j int64) {
					if j >= 0 && j < cols {
						masked[j] = x[j]
					}
				})
				got := make([]float64, rows)
				m.MultiplyAddPart(got, masked, kp.Piece(c))
				ok := true
				rp.Piece(c).Each(func(i int64) {
					if math.Abs(got[i]-want[i]) > 1e-12 {
						ok = false
					}
				})
				if !ok {
					t.Logf("%s co-partitioning unsound (seed %d, color %d)", m.Format(), seed, c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestShapePanics(t *testing.T) {
	// Every kernel of every format checks shapes on entry. The vectors
	// are one entry too long, which no out-of-range index would catch.
	coords := randomCoords(rand.New(rand.NewSource(1)), 4, 4)
	ms := append(buildAll(4, 4, coords),
		AutoSelect(CSRFromCoords(4, 4, coords), 2),
		ConstBand(4, 4, []int64{-1, 0}, []float64{1, 2}),
		NewBand(4, 4, []int64{0}, nil),
		NewStencilOperator(Stencil1D3, index.NewGrid(4)))
	for _, m := range ms {
		rows, cols := Dims(m)
		full := m.Kernel().Set
		vec := func(n int64) []float64 { return make([]float64, n) }
		for _, c := range []struct {
			name string
			fn   func()
		}{
			{"MultiplyAddPart y", func() { m.MultiplyAddPart(vec(rows+1), vec(cols), full) }},
			{"MultiplyAddPart x", func() { m.MultiplyAddPart(vec(rows), vec(cols+1), full) }},
			{"MultiplyAddTPart y", func() { m.MultiplyAddTPart(vec(cols+1), vec(rows), full) }},
			{"MultiplyAddTPart x", func() { m.MultiplyAddTPart(vec(cols), vec(rows+1), full) }},
			{"SpMV y", func() { SpMV(m, vec(rows+1), vec(cols)) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: expected shape panic", m.Format(), c.name)
					}
				}()
				c.fn()
			}()
		}
	}
}
