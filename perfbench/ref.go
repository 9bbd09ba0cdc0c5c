package main

import (
	"math"
	"time"

	"kdrsolvers/internal/sparse"
)

// The reference rung: serial CSR arithmetic written against the raw
// arrays, sharing no code with the framework. It checks answers and
// prices the framework's per-iteration cost against a hand-written loop.

// csrMul returns A·x.
func csrMul(a *sparse.CSR, x []float64) []float64 {
	rp, ci, v := a.RowPtr(), a.ColIdx(), a.Vals()
	y := make([]float64, len(rp)-1)
	for i := range y {
		var s float64
		for k := rp[i]; k < rp[i+1]; k++ {
			s += v[k] * x[ci[k]]
		}
		y[i] = s
	}
	return y
}

// residual returns ‖b − A·x‖₂.
func residual(a *sparse.CSR, x, b []float64) float64 {
	ax := csrMul(a, x)
	var s float64
	for i := range b {
		d := b[i] - ax[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// refCG runs unpreconditioned CG from x = 0 until ‖r‖ ≤ tol and returns
// the iteration count and the mean wall time per iteration.
func refCG(a *sparse.CSR, b []float64, tol float64, maxIter int) (int, time.Duration) {
	rp, ci, v := a.RowPtr(), a.ColIdx(), a.Vals()
	n := len(b)
	x, r, p, ap := make([]float64, n), append([]float64(nil), b...), append([]float64(nil), b...), make([]float64, n)
	rr := dot(r, r)
	start := time.Now()
	it := 0
	for it < maxIter && math.Sqrt(rr) > tol {
		for i := 0; i < n; i++ {
			var s float64
			for k := rp[i]; k < rp[i+1]; k++ {
				s += v[k] * p[ci[k]]
			}
			ap[i] = s
		}
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		it++
	}
	if it == 0 {
		return 0, 0
	}
	return it, time.Since(start) / time.Duration(it)
}

func dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}
