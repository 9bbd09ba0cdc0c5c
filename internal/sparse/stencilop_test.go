package sparse

import (
	"math/rand"
	"testing"

	"kdrsolvers/internal/index"
)

// stencilCases pairs each matrix-free operator with its assembled CSR
// reference.
func stencilCases() []struct {
	op  *StencilOperator
	ref *CSR
} {
	return []struct {
		op  *StencilOperator
		ref *CSR
	}{
		{NewStencilOperator(Stencil1D3, index.NewGrid(17)), Laplacian1D(17)},
		{NewStencilOperator(Stencil2D5, index.NewGrid(5, 7)), Laplacian2D(5, 7)},
		{NewStencilOperator(Stencil3D7, index.NewGrid(3, 4, 2)), Laplacian3D(3, 4, 2)},
		{NewStencilOperator(Stencil3D27, index.NewGrid(3, 2, 3)), Laplacian3D27(3, 2, 3)},
	}
}

func TestStencilOperatorMatchesAssembled(t *testing.T) {
	for _, c := range stencilCases() {
		if !densesEqual(ToDense(c.op), ToDense(c.ref), 1e-13) {
			t.Errorf("%s does not match assembled CSR", c.op.Format())
		}
	}
}

func TestStencilOperatorAdjoint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range stencilCases() {
		n := c.op.n
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		want := make([]float64, n)
		SpMVT(c.ref, want, x)
		got := make([]float64, n)
		SpMVT(c.op, got, x)
		if !densesEqual(got, want, 1e-12) {
			t.Errorf("%s adjoint mismatch", c.op.Format())
		}
	}
}

func TestStencilOperatorPartitioned(t *testing.T) {
	// Restricted multiply-adds over any complete disjoint kernel
	// partition — here random multi-interval pieces cutting diagonals and
	// padding anywhere — must sum to the full product, forward and
	// adjoint.
	r := rand.New(rand.NewSource(5))
	for _, c := range stencilCases() {
		n := c.op.n
		x := randomVec(r, n)
		want := make([]float64, n)
		SpMV(c.ref, want, x)
		pieces := randomKernelPieces(r, c.op.Kernel().Size(), 5)
		got := make([]float64, n)
		for _, kset := range pieces {
			c.op.MultiplyAddPart(got, x, kset)
		}
		if !densesEqual(got, want, 1e-12) {
			t.Errorf("%s partitioned forward mismatch", c.op.Format())
		}
		wantT := make([]float64, n)
		SpMVT(c.ref, wantT, x)
		gotT := make([]float64, n)
		for _, kset := range pieces {
			c.op.MultiplyAddTPart(gotT, x, kset)
		}
		if !densesEqual(gotT, wantT, 1e-12) {
			t.Errorf("%s partitioned adjoint mismatch", c.op.Format())
		}
	}
}

func TestStencilOperatorRelationsSound(t *testing.T) {
	// The implicit relations must cover the true dependences: masking x
	// outside the derived input partition must not change the piece.
	for _, c := range stencilCases() {
		n := c.op.n
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%13) + 1
		}
		want := make([]float64, n)
		SpMV(c.op, want, x)
		rp := index.EqualPartition(c.op.Range(), 3)
		for p := 0; p < 3; p++ {
			kset := c.op.RowRelation().Preimage(rp.Piece(p))
			dset := c.op.ColRelation().Image(kset)
			masked := make([]float64, n)
			dset.Each(func(j int64) {
				if j >= 0 && j < n {
					masked[j] = x[j]
				}
			})
			got := make([]float64, n)
			c.op.MultiplyAddPart(got, masked, kset)
			ok := true
			rp.Piece(p).Each(func(i int64) {
				if got[i] != want[i] {
					ok = false
				}
			})
			if !ok {
				t.Errorf("%s co-partitioning unsound for piece %d", c.op.Format(), p)
			}
		}
	}
}

func TestStencilOperatorMetadata(t *testing.T) {
	op := NewStencilOperator(Stencil2D5, index.NewGrid(8, 8))
	if op.NNZ() != 5*64 {
		t.Errorf("NNZ = %d", op.NNZ())
	}
	if op.Domain().Size() != 64 || op.Range().Size() != 64 || op.Kernel().Size() != 320 {
		t.Error("space sizes wrong")
	}
	if op.Format() != "Stencil(5pt-2D)" {
		t.Errorf("Format = %q", op.Format())
	}
	if op.Grid().Size() != 64 {
		t.Error("Grid wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("rank mismatch should panic")
		}
	}()
	NewStencilOperator(Stencil1D3, index.NewGrid(4, 4))
}

func TestStencilOperatorScale(t *testing.T) {
	// The whole point of the matrix-free form: metadata and relations at
	// huge scale without allocating entries.
	op := NewStencilOperator(Stencil2D5, index.NewGrid(1<<16, 1<<16))
	if op.NNZ() != 5<<32 {
		t.Fatalf("NNZ = %d", op.NNZ())
	}
	rp := index.EqualPartition(op.Range(), 64)
	kset := op.RowRelation().Preimage(rp.Piece(7))
	if kset.Empty() {
		t.Fatal("projection at scale failed")
	}
	dset := op.ColRelation().Image(kset)
	// The halo of a row block is the block plus one grid row on each side.
	want := rp.Piece(7).Size() + 2<<16
	if got := dset.Size(); got != want {
		t.Fatalf("halo size = %d, want %d", got, want)
	}
}
