package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// solve-large: the one-shot path mmsolve runs — jobspec.LoadMatrix then
// serve.RunSolve on a fresh runtime — on a 5M-nonzero operator whose
// working set is far past the per-core caches. Bandwidth-bound: SpMV
// and vector sweeps dominate; the launch path does little.
const (
	largeMatrix = "lap2d:1000x1000"
	largeTol    = 1.0
	// largeIterations is the iteration count CG on largeMatrix with
	// b = A·1 takes to largeTol. A solve that takes any other count
	// computed something else: the run fails its correctness gate.
	largeIterations = 104
	// largeMinRounds is the fewest load+solve rounds a run makes,
	// however short its window.
	largeMinRounds = 3
)

func largeSpec() jobspec.Spec {
	spec := jobspec.Default()
	spec.Matrix = largeMatrix
	spec.Solver = "cg"
	spec.Format = "csr"
	spec.Pieces = 8
	spec.RHS = "Aones"
	spec.Tol = largeTol
	return spec
}

// largeRound is one timed load + solve.
type largeRound struct {
	load, wall time.Duration
	out        serve.JobResult
	iterTimes  []float64 // ms per iteration, from the telemetry hook
}

// runLargeRound loads the operator and solves once on a fresh runtime,
// as one mmsolve invocation does. Tracing (trace memoization) is on, the
// CLI default; rec, when non-nil, records task spans.
func runLargeRound(spec jobspec.Spec, rec bool) (largeRound, *soloProfile, error) {
	var r largeRound
	t0 := time.Now()
	a, err := jobspec.LoadMatrix(spec.Matrix)
	if err != nil {
		return r, nil, err
	}
	r.load = time.Since(t0)
	var last time.Time
	tele := func(iter int, _ float64) {
		now := time.Now()
		if iter > 0 {
			r.iterTimes = append(r.iterTimes, ms(now.Sub(last)))
		}
		last = now
	}
	w0 := time.Now()
	var prof *soloProfile
	if rec {
		r.out, prof = soloRun(a, spec, tele)
	} else {
		rt := taskrt.New()
		r.out = serve.RunSolve(a, spec, serve.Options{Session: rt.DefaultSession(), Tracing: true, Telemetry: tele})
	}
	r.wall = time.Since(w0)
	return r, prof, nil
}

func runSolveLarge(cfg config) (*report, error) {
	rep := newReport(cfg)
	spec := largeSpec()
	a, err := jobspec.LoadMatrix(spec.Matrix)
	if err != nil {
		return nil, err
	}
	rows, _ := sparse.Dims(a)
	ones := make([]float64, rows)
	for i := range ones {
		ones[i] = 1
	}
	b := csrMul(a, ones) // b = A·1, built without the program's helpers

	var setups, solves, loads, iters []float64
	var total time.Duration
	rss := sampleRSS(os.Getpid())
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(solves) < largeMinRounds || time.Now().Before(deadline) {
		r, _, err := runLargeRound(spec, false)
		if err != nil {
			return nil, err
		}
		class := checkLarge(rep, a, b, r.out, spec.Tol)
		rep.record(class)
		total += r.load + r.wall
		loads = append(loads, ms(r.load))
		setups = append(setups, (r.load + r.wall - r.out.Elapsed).Seconds())
		if class == classOK {
			solves = append(solves, r.out.Elapsed.Seconds())
			iters = append(iters, r.iterTimes...)
		}
	}
	rssSamples := rss.end()
	hwm, err := procStatusKB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("solve_s", median(solves), "s")
	rep.set("throughput_jobs_s", ratio(float64(len(solves)), total.Seconds()), "jobs/s")
	rep.set("proc.rss_mb", mean(rssSamples)/1024, "MB")
	rep.set("proc.peak_rss_mb", hwm/1024, "MB")
	fmt.Printf("solve-large: %s cg/csr/8 pieces to tol %g, %d rounds; setup = LoadMatrix + RunSolve wall - Elapsed (median of %d); per-iteration latency below\n",
		spec.Matrix, spec.Tol, rep.attempted, len(setups))
	rep.latency(iters, iters, 99, 90)

	if cfg.trace {
		if err := largeLayers(rep, a, b, spec, loads, solves); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkLarge is the solve-large correctness gate: the iteration count
// must be largeIterations, and the residual the benchmark recomputes
// from JobResult.X must meet the tolerance and agree with the one the
// program reports.
func checkLarge(rep *report, a *sparse.CSR, b []float64, out serve.JobResult, tol float64) string {
	own := residual(a, out.X, b)
	if out.Iterations != largeIterations {
		rep.gate("solve-large took %d iterations, expected %d", out.Iterations, largeIterations)
	}
	if !(own <= residualSlack*tol) {
		rep.gate("solve-large residual ||b - A·x|| = %g above %g·tol", own, residualSlack)
	}
	if math.Abs(own-out.TrueResidual) > 1e-9*math.Max(1, own) {
		rep.gate("solve-large reports true residual %g, recomputed %g", out.TrueResidual, own)
	}
	checked := out
	checked.TrueResidual = own
	return classifyResult(&checked, tol)
}
