// Package solvers implements Krylov subspace methods against the
// KDRSolvers planner interface (Figure 6 of the paper): CG, BiCGStab,
// GMRES(m), MINRES, BiCG, and preconditioned CG.
//
// Solvers never touch storage formats, component structure, partitions, or
// data placement — they see only the planner's vector and scalar
// operations, which is the separation Section 5 describes. All solvers
// share the Step/ConvergenceMeasure interface of the paper's Figure 7, so
// they are drop-in replacements for one another.
//
// Scalar coefficients are deferred (core.Scalar): a solver's Step launches
// its whole iteration without blocking, and the runtime pipelines
// independent work across operations and iterations. Only the driver's
// convergence check — or a solver that genuinely needs host-side scalar
// control flow, like GMRES's restart solve — synchronizes.
package solvers

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"kdrsolvers/internal/core"
)

// Solver is one Krylov subspace method bound to a planner. Step launches
// one iteration's tasks; ConvergenceMeasure returns the squared residual
// norm ‖b − Ax‖² as a deferred scalar.
type Solver interface {
	// Step launches one iteration.
	Step()
	// ConvergenceMeasure returns the current squared residual norm.
	ConvergenceMeasure() *core.Scalar
	// Name returns the method's conventional name.
	Name() string
}

// New constructs the named solver on a planner. Recognized names are
// "cg", "pipecg", "bicgstab", "gmres" (restart 10, as in the paper's
// benchmarks), "minres", "bicg", "pcg", "cgs", and the
// communication-avoiding family: "sstep-cg" (s = 4), "pgmres"
// (pipelined GMRES(10)), and "gcrodr" (GCRO-DR(10, 4), recycling
// disabled without an explicit cache). The ablation names
// "cg-unfused", "pcg-unfused", and "bicgstab-unfused" select the
// pre-fusion per-operation formulations — the paper's measured
// configuration — and are deliberately left out of Names. It panics on
// an unknown name.
func New(name string, p *core.Planner) Solver {
	switch name {
	case "cg":
		return NewCG(p)
	case "cg-unfused":
		return NewCGUnfused(p)
	case "pipecg":
		return NewPipeCG(p)
	case "bicgstab":
		return NewBiCGStab(p)
	case "bicgstab-unfused":
		return NewBiCGStabUnfused(p)
	case "gmres":
		return NewGMRES(p, 10)
	case "minres":
		return NewMINRES(p)
	case "bicg":
		return NewBiCG(p)
	case "pcg":
		return NewPCG(p)
	case "pcg-unfused":
		return NewPCGUnfused(p)
	case "cgs":
		return NewCGS(p)
	case "sstep-cg":
		return NewSStepCG(p, 4)
	case "pgmres":
		return NewPGMRES(p, 10)
	case "gcrodr":
		return NewGCRODR(p, 10, 4, nil)
	}
	panic(fmt.Sprintf("solvers: unknown solver %q", name))
}

// Names lists the recognized solver names.
var Names = []string{"cg", "pipecg", "bicgstab", "gmres", "minres", "bicg", "pcg", "cgs",
	"sstep-cg", "pgmres", "gcrodr"}

// RunIterations executes exactly n steps without convergence checks —
// the paper's benchmark mode (tolerances were set to extreme values to
// prevent early exit).
func RunIterations(s Solver, n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Result reports a converged (or abandoned) solve.
type Result struct {
	// Iterations is the number of steps executed.
	Iterations int
	// Residual is the final residual 2-norm as the solver's own
	// convergence measure reports it (a recurrence for most methods).
	Residual float64
	// TrueResidual is the recomputed ‖b − A·x‖ for solvers implementing
	// ConvergenceVerifier; for the rest it equals Residual (their measure
	// is already an honest inner product of the maintained residual).
	TrueResidual float64
	// Converged reports whether the tolerance was reached.
	Converged bool
	// Replacements counts residual-replacement events: rebasings of the
	// recurrence residual onto the recomputed true residual b − A·x,
	// performed periodically or on a corruption alarm by resilient
	// drivers. Zero for plain Solve.
	Replacements int
	// Breakdown is non-nil when the method hit a Krylov breakdown (a
	// vanished recurrence denominator) and stopped cleanly at the last
	// iterate instead of NaN-poisoning it. It wraps ErrBreakdown.
	Breakdown error
}

// ErrBreakdown is the sentinel wrapped by every breakdown signal: a
// recurrence denominator (ρ, ω, p̃ᵀAp, ...) vanished, so the method
// cannot continue from this Krylov space. The iterate is left at its
// last finite value; callers typically restart or switch methods.
var ErrBreakdown = errors.New("solvers: Krylov breakdown")

// BreakdownChecker is implemented by solvers that detect recurrence
// breakdown (BiCG, BiCGStab, CGS). Breakdown returns nil until a guarded
// denominator vanishes; Solve polls it every iteration and stops cleanly.
type BreakdownChecker interface {
	Breakdown() error
}

// ConvergenceVerifier is implemented by solvers whose convergence
// measure is an estimate that can drift from the truth (the GMRES
// family's Givens recurrence, s-step CG's coefficient-space norm).
// VerifyConvergence recomputes the true residual ‖b − A·x‖ — finishing
// any open restart cycle first, so x is current — and returns its norm.
// Solve calls it before believing the measure; a verifier that
// disagrees sends the solve back to iterating instead of returning a
// falsely converged iterate.
type ConvergenceVerifier interface {
	VerifyConvergence() float64
}

// ReplacementReport describes one residual-replacement decision.
type ReplacementReport struct {
	// TrueResidual is ‖b − A·x‖ recomputed from the current iterate.
	TrueResidual float64
	// Drift is the distance between the recurrence residual and the true
	// residual (‖r_rec − r_true‖ for methods carrying an explicit residual
	// vector; |est − true| for estimate-based methods).
	Drift float64
	// Replaced reports whether the recurrence was rebased onto the true
	// residual.
	Replaced bool
}

// ResidualReplacer is implemented by solvers supporting residual
// replacement (van der Vorst & Ye): ReplaceResidual recomputes the true
// residual b − A·x, measures how far the recurrence residual has
// drifted from it, and — when the relative drift exceeds driftTol, or
// always when driftTol <= 0 (a forced replacement, the corruption-
// recovery path) — rebases the recurrence on the true residual so the
// method converges to the actual solution rather than to its drifted
// recurrence's fiction. Pipelined and s-step methods rebuild their
// auxiliary recurrences (w = Ar, s = Ap, basis blocks) from the rebased
// state; estimate-based methods (PGMRES, s-step CG) finish any open
// cycle first and always replace.
type ResidualReplacer interface {
	ReplaceResidual(driftTol float64) ReplacementReport
}

// breakdownFlag records the first breakdown observed by guarded scalar
// tasks. Guards run inside runtime tasks, so the flag is locked.
type breakdownFlag struct {
	mu  sync.Mutex
	err error
}

// report records the first breakdown cause; later reports are dropped.
func (f *breakdownFlag) report(method, what string) {
	f.mu.Lock()
	if f.err == nil {
		f.err = fmt.Errorf("%w: %s: %s denominator vanished", ErrBreakdown, method, what)
	}
	f.mu.Unlock()
}

// get returns the recorded breakdown, or nil.
func (f *breakdownFlag) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// guardedDiv returns a/b as a deferred scalar, guarding the BiCG-family
// breakdown divisions: when the quotient is not finite (b ≈ 0, or a
// poisoned NaN operand), the task records a breakdown on f and yields 0,
// so the iteration's updates degenerate to no-ops instead of NaN-
// poisoning every downstream vector. Every guard is upstream of the
// residual dataflow within at most one iteration, so Solve's per-step
// synchronization observes the flag on the step it fires or the next one.
func guardedDiv(p *core.Planner, f *breakdownFlag, method, what string, a, b *core.Scalar) *core.Scalar {
	return p.ScalarExpr("div.guard", func(v []float64) float64 {
		q := v[0] / v[1]
		if math.IsNaN(q) || math.IsInf(q, 0) {
			f.report(method, what)
			return 0
		}
		return q
	}, a, b)
}

// Solve steps until the residual norm drops below tol or maxIter steps
// have run. It synchronizes on the convergence measure every iteration,
// like the paper's driver loop. Each non-nil observe function is called
// with the iteration number and that measure, for the initial residual
// (iteration 0) and after every step.
func Solve(s Solver, tol float64, maxIter int, observe ...func(iter int, res float64)) Result {
	report := func(i int, res float64) {
		for _, f := range observe {
			if f != nil {
				f(i, res)
			}
		}
	}
	res := math.Sqrt(s.ConvergenceMeasure().Value())
	report(0, res)
	if res <= tol {
		// The pre-iteration measure is an honest Dot of the initial
		// residual in every solver here; no verification needed.
		return Result{Iterations: 0, Residual: res, TrueResidual: res, Converged: true}
	}
	for i := 1; i <= maxIter; i++ {
		s.Step()
		res = math.Sqrt(s.ConvergenceMeasure().Value())
		report(i, res)
		if math.IsNaN(res) {
			return Result{Iterations: i, Residual: res, TrueResidual: res, Converged: false}
		}
		if res <= tol {
			// Estimated measures must survive a true-residual recomputation
			// before the solve may stop: a Givens or coefficient-space
			// recurrence claiming convergence is not proof the iterate
			// earned it.
			if v, ok := s.(ConvergenceVerifier); ok {
				tr := v.VerifyConvergence()
				if math.IsNaN(tr) {
					return Result{Iterations: i, Residual: res, TrueResidual: tr, Converged: false}
				}
				if tr > tol {
					res = tr // estimate drifted; keep iterating from the verified state
					continue
				}
				return Result{Iterations: i, Residual: res, TrueResidual: tr, Converged: true}
			}
			return Result{Iterations: i, Residual: res, TrueResidual: res, Converged: true}
		}
		// Breakdown guards zero the step's coefficients, so the iterate is
		// still finite; report the stagnation cleanly instead of spinning
		// on a frozen residual until maxIter.
		if bc, ok := s.(BreakdownChecker); ok {
			if err := bc.Breakdown(); err != nil {
				return Result{Iterations: i, Residual: res, TrueResidual: res, Converged: false, Breakdown: err}
			}
		}
	}
	return Result{Iterations: maxIter, Residual: res, TrueResidual: res, Converged: false}
}

// residualInit launches r ← b − A·x into workspace r, the common
// initialization of every method here. The negate-and-add is one xpay
// sweep (r ← b + (−1)·r), bitwise identical to the scal-then-axpy pair
// it replaces: IEEE negation is exact and addition commutes.
func residualInit(p *core.Planner, r core.VecID) {
	p.Matmul(r, core.SOL)               // r = Ax
	p.Xpay(r, p.Constant(-1), core.RHS) // r = b - Ax
}
