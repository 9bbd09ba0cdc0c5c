// Package serve hosts many solve jobs over one shared task runtime: a
// per-job session layer (RunSolve), an admission-controlled job server
// (Server) with coalescing of same-operator jobs into batched multi-RHS
// solves, and an HTTP front end (Handler). cmd/mmserve is the binary;
// cmd/mmsolve drives RunSolve in one-shot mode.
package serve

import (
	"fmt"
	"math"
	"time"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/fault"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/precond"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// Options tailor one RunSolve call beyond the job spec.
type Options struct {
	// Session is the taskrt session the solve launches into. Required:
	// every planner RunSolve builds binds to it, so many RunSolve calls
	// can share one runtime without sharing failure state.
	Session *taskrt.Session
	// Cache, when non-nil and the spec's solver is gcrodr, warm-starts
	// the solve from (and publishes the harvested space back to) the
	// shared cross-solve recycle cache.
	Cache *solvers.RecycleCache
	// Telemetry, when non-nil, is called after every iteration of a
	// non-resilient solve with the iteration number and recurrence
	// residual.
	Telemetry func(iter int, res float64)
	// Log, when non-nil, receives the resilient driver's progress lines.
	Log func(format string, args ...any)
	// Tracing controls trace memoization of the solve's iteration loop.
	// Per-session templates make it safe under multi-tenancy; replay
	// still demotes to analysis whenever another session's launches
	// interleave (task IDs are global), so it mostly pays off when a
	// session runs back-to-back iterations alone.
	Tracing bool
	// Recorder, when non-nil, is attached to the session before the
	// solve so every task records wall-clock spans.
	Recorder *obs.Recorder
	// Resume, when non-nil, seeds the solve from a persisted checkpoint:
	// the solution vector starts from Resume.X instead of zero, and a
	// resilient solve (CheckpointEvery > 0) continues its iteration
	// accounting at Resume.Iter — MaxIter still bounds the job's TOTAL
	// iterations across its lifetime.
	Resume *ResumePoint
	// CheckpointSink, when non-nil and the spec selects the resilient
	// driver, receives every verified checkpoint the moment it is taken:
	// the absolute iteration, the host-verified true residual, the full
	// solution vector in index order, and the operator fingerprint the
	// job's recycle space is keyed by. The slice is only valid during
	// the call — persist synchronously.
	CheckpointSink func(iter int, residual float64, x []float64, basis string)
}

// JobResult is the outcome of one solve job, shaped for the server's
// JSON responses and the CLI's report alike.
type JobResult struct {
	Solver       string  `json:"solver"`
	N            int     `json:"n"`
	NNZ          int64   `json:"nnz"`
	Iterations   int     `json:"iterations"`
	Residual     float64 `json:"residual"`
	TrueResidual float64 `json:"true_residual"`
	Converged    bool    `json:"converged"`
	Breakdown    string  `json:"breakdown,omitempty"`

	// Resilient-driver accounting (zero for plain solves).
	Restarts          int     `json:"restarts,omitempty"`
	Checkpoints       int     `json:"checkpoints,omitempty"`
	RecoveredFailures int64   `json:"recovered_failures,omitempty"`
	Replacements      int     `json:"replacements,omitempty"`
	SDCAlarms         int64   `json:"sdc_alarms,omitempty"`
	PieceRestores     int     `json:"piece_restores,omitempty"`
	MaxDrift          float64 `json:"max_drift,omitempty"`

	// Err is the session's joined failure state after the solve ("" when
	// clean or recovered). Retryable marks a rejection the client should
	// simply resubmit (a drain took the job before it started), not a
	// solve failure.
	Err       string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`

	// Injected counts faults the job's injector fired; AutoFormats
	// lists the per-band formats adaptive tuning chose (format "auto"
	// only).
	Injected    int64    `json:"injected,omitempty"`
	AutoFormats []string `json:"auto_formats,omitempty"`

	// Coalesced is the number of jobs fused into the batched multi-RHS
	// solve this result came from (0 or 1 for a solo solve).
	Coalesced int `json:"coalesced,omitempty"`

	// ResumedFrom is the absolute checkpoint iteration a replayed job
	// restarted from (0 for a job that ran from scratch).
	ResumedFrom int `json:"resumed_from_iter,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
	// Session is the per-session launch accounting, the evidence
	// multi-tenant tests use to prove no cross-session serialization.
	Session taskrt.SessionStats `json:"session_stats"`

	// X is the computed solution, for in-process callers (the CLI's
	// exact-solution check); never serialized.
	X []float64 `json:"-"`
}

// RunSolve executes one job against an already loaded matrix, inside
// opt.Session. The planner, fault injector, retry policy, and watchdog
// are all session-scoped, so concurrent RunSolve calls on one runtime
// stay independent: a fault plan in one job never fires in another, and
// one job's permanent failure never pollutes another's error state.
func RunSolve(a *sparse.CSR, spec jobspec.Spec, opt Options) JobResult {
	sess := opt.Session
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rows, _ := sparse.Dims(a)
	n := int(rows)
	out := JobResult{Solver: spec.Solver, N: n, NNZ: a.NNZ()}

	b := spec.BuildRHS(a, n)
	x := make([]float64, n)
	if opt.Resume != nil {
		if len(opt.Resume.X) != n {
			out.Err = fmt.Sprintf("serve: resume checkpoint has %d entries, system has %d", len(opt.Resume.X), n)
			return out
		}
		copy(x, opt.Resume.X)
		out.ResumedFrom = opt.Resume.Iter
	}
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1), Session: sess})
	si := p.AddSolVector(x, index.EqualPartition(index.NewSpace("D", rows), spec.Pieces))
	ri := p.AddRHSVector(b, index.EqualPartition(index.NewSpace("R", rows), spec.Pieces))
	if canon, _ := sparse.CanonicalFormat(spec.Format); canon == "Auto" {
		tuned := p.AddOperatorAuto(a, si, ri)
		out.AutoFormats = tuned.SelectedFormats()
	} else {
		m, err := sparse.ConvertNamed(a, spec.Format)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		p.AddOperator(m, si, ri)
	}
	if spec.Solver == "pcg" || spec.Solver == "pcg-unfused" {
		p.AddPreconditioner(precond.Jacobi(a), si, ri)
	}
	p.Finalize()
	p.SetTracing(opt.Tracing)

	var injector *fault.Injector
	if spec.Faults != "" {
		plan, err := fault.ParsePlan(spec.Faults)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		if plan.Active() {
			injector = fault.NewInjector(plan)
			sess.SetFaultInjector(injector)
		}
	}
	if spec.Retries > 1 {
		sess.SetRetryPolicy(taskrt.RetryPolicy{MaxAttempts: spec.Retries, Backoff: spec.RetryBackoff})
	}
	if spec.Watchdog > 0 {
		sess.SetWatchdog(spec.Watchdog)
	}
	if opt.Recorder != nil {
		sess.SetRecorder(opt.Recorder)
	}

	newSolver := func() solvers.Solver {
		if spec.Solver == "gcrodr" && opt.Cache != nil {
			return solvers.NewGCRODR(p, 10, 4, opt.Cache)
		}
		return solvers.New(spec.Solver, p)
	}

	start := time.Now()
	var res solvers.Result
	if spec.CheckpointEvery > 0 {
		mr := spec.MaxRestarts
		if mr <= 0 {
			mr = -1 // solvers.ResilientConfig: negative disables restarts
		}
		rcfg := solvers.ResilientConfig{
			Tol: spec.Tol, MaxIter: spec.MaxIter,
			CheckpointEvery: spec.CheckpointEvery, MaxRestarts: mr,
			DetectSDC:    spec.DetectSDC,
			ReplaceEvery: spec.ReplaceEvery, DriftTol: spec.DriftTol,
			Log: logf,
		}
		if opt.Resume != nil {
			rcfg.StartIteration = opt.Resume.Iter
		}
		if sink := opt.CheckpointSink; sink != nil {
			basis := p.OperatorFingerprint()
			rcfg.CheckpointSink = func(c solvers.Checkpoint) {
				sink(c.Iteration, c.TrueResidual, flattenCheckpoint(c.Sol), basis)
			}
		}
		rres := solvers.SolveResilient(p, newSolver, rcfg)
		res = rres.Result
		out.Restarts = rres.Restarts
		out.Checkpoints = rres.Checkpoints
		out.RecoveredFailures = rres.RecoveredFailures
		out.Replacements = rres.Replacements
		out.SDCAlarms = rres.SDCAlarms
		out.PieceRestores = rres.PieceRestores
		out.MaxDrift = rres.MaxDrift
	} else {
		if spec.DetectSDC {
			p.EnableSDCDetection(0) // observe-only without the resilient driver
		}
		s := newSolver()
		res = solvers.Solve(s, spec.Tol, spec.MaxIter, opt.Telemetry)
		if g, ok := s.(*solvers.GCRODR); ok && opt.Cache != nil && res.Converged {
			p.Drain()
			g.SaveRecycleSpace()
		}
	}
	p.Drain()
	out.Elapsed = time.Since(start)

	// The honest yardstick: ‖b − A·x‖ recomputed host-side from the raw
	// matrix and arrays, sharing no state with the solve.
	out.TrueResidual = HostResidual(a, x, b)
	out.Iterations = res.Iterations
	out.Residual = res.Residual
	out.Converged = res.Converged
	if res.Breakdown != nil {
		out.Breakdown = res.Breakdown.Error()
	}
	if spec.DetectSDC && spec.CheckpointEvery <= 0 {
		if mon := p.SDCMonitor(); mon != nil {
			out.SDCAlarms = mon.Count()
		}
	}
	if injector != nil {
		out.Injected = injector.Injected()
	}
	// A converged resilient solve has, by construction, verified the
	// true residual after recovery, so recovered task failures do not
	// fail the job. A plain solve has no recovery path: any task failure
	// is fatal.
	if err := sess.Err(); err != nil && !(spec.CheckpointEvery > 0 && res.Converged) {
		out.Err = err.Error()
	}
	out.Session = sess.Stats()
	out.X = x
	return out
}

// flattenCheckpoint concatenates a planner checkpoint's per-component
// slices into one index-ordered vector (RunSolve planners have a single
// solution component, so this is usually a copy of that one slice).
func flattenCheckpoint(sol [][]float64) []float64 {
	if len(sol) == 1 {
		return append([]float64(nil), sol[0]...)
	}
	var n int
	for _, s := range sol {
		n += len(s)
	}
	out := make([]float64, 0, n)
	for _, s := range sol {
		out = append(out, s...)
	}
	return out
}

// HostResidual is ‖b − A·x‖ computed directly from the raw arrays.
func HostResidual(a sparse.Matrix, x, b []float64) float64 {
	ax := make([]float64, len(b))
	sparse.SpMV(a, ax, x)
	var rr float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
	}
	return math.Sqrt(rr)
}
