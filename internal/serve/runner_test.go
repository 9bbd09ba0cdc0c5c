package serve

import (
	"fmt"
	"testing"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/taskrt"
)

// A plain (non-resilient) RunSolve goes through solvers.Solve, so a
// solver whose convergence measure is a recurrence estimate (GMRES's
// Givens residual, pipelined GMRES, GCRO-DR) must have its claim
// confirmed by a true-residual recomputation before the job reports
// converged. Every converged job must then meet tol on the host-side
// residual that shares no state with the solve. The per-iteration
// telemetry hook still fires once per iteration, starting at 0.
func TestPlainSolveConvergenceIsVerified(t *testing.T) {
	for _, c := range []struct {
		matrix string
		tol    float64
	}{{"lap2d:32x32", 1e-10}, {"lap2d:48x20", 1e-8}} {
		a, err := jobspec.LoadMatrix(c.matrix)
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []string{"gmres", "pgmres", "gcrodr"} {
			t.Run(fmt.Sprintf("%s/%s/%g", c.matrix, solver, c.tol), func(t *testing.T) {
				spec := jobspec.Default()
				spec.Matrix, spec.Solver, spec.Tol = c.matrix, solver, c.tol
				var calls, last int
				res := RunSolve(a, spec, Options{
					Session:   taskrt.New().DefaultSession(),
					Telemetry: func(iter int, _ float64) { calls, last = calls+1, iter },
				})
				if res.Err != "" || !res.Converged {
					t.Fatalf("converged=%v err=%q", res.Converged, res.Err)
				}
				if res.TrueResidual > c.tol {
					t.Errorf("reported converged in %d iterations with host true residual %.3g > tol %g (estimate %.3g)",
						res.Iterations, res.TrueResidual, c.tol, res.Residual)
				}
				if calls != res.Iterations+1 || last != res.Iterations {
					t.Errorf("telemetry fired %d times, last at %d, for %d iterations", calls, last, res.Iterations)
				}
			})
		}
	}
}
