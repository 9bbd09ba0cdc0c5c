package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/sparse"
)

// serve-durable: a closed loop of one client per CPU, each waiting for
// its reply (POST /solve?wait=1), against mmserve. Jobs run on seeded
// Matrix Market operators of different structure and size with verified
// checkpoints, adaptive format selection and recycling solvers, so
// nothing coalesces and concurrent sessions share nothing: the work goes
// to the format tuner, the non-CSR kernels, the resilient driver, large
// journal records and matrix loads.
const (
	durableTol        = 1e-6
	durableCheckpoint = 20
	// durableMaxIter bounds a job that stops converging (under the seed's
	// tracing defect some stagnate) to about four times the iterations a
	// clean solve of the slowest pair needs, so a failed job is counted as
	// such instead of holding a client for seconds.
	durableMaxIter = 400
	// durableLifetime is the most load one mmserve process takes: the
	// seed's server keeps about 4 MB per job, and one process would
	// reach gigabytes in a window.
	durableLifetime = 12 * time.Second
)

// durableOps is the operator catalog: structure and size vary, and the
// seed perturbs the diagonal (see writeOperators).
var durableOps = []struct {
	name  string
	build func() *sparse.CSR
}{
	{"lap2d-64", func() *sparse.CSR { return sparse.Laplacian2D(64, 64) }},
	{"lap2d-80", func() *sparse.CSR { return sparse.Laplacian2D(80, 80) }},
	{"lap3d7-16", func() *sparse.CSR { return sparse.Laplacian3D(16, 16, 16) }},
	{"lap3d27-12", func() *sparse.CSR { return sparse.Laplacian3D27(12, 12, 12) }},
}

var durableSolvers = []string{"cg", "pipecg", "sstep-cg", "pcg", "gcrodr"}

// writeOperators writes the catalog as Matrix Market files under dir.
// Each operator is its stencil with every diagonal entry scaled up by a
// seeded 1–3%: symmetric positive definite and conditioned so every
// solver in the cycle converges in about a hundred iterations; its
// values, not its structure or cost, differ from seed to seed.
func writeOperators(dir string, seed int64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var paths []string
	for _, op := range durableOps {
		a := op.build()
		rp, ci := a.RowPtr(), a.ColIdx()
		v := append([]float64(nil), a.Vals()...)
		for i := 0; i+1 < len(rp); i++ {
			for k := rp[i]; k < rp[i+1]; k++ {
				if ci[k] == int64(i) {
					v[k] *= 1 + 0.02*(0.5+rng.Float64())
				}
			}
		}
		rows, cols := sparse.Dims(a)
		path := filepath.Join(dir, op.name+".mtx")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := sparse.WriteMatrixMarket(f, sparse.NewCSR(rows, cols, rp, ci, v)); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// durablePairs is the cycle of (operator index, solver) pairs the
// closed loop runs: every operator with every CG-family solver, and
// gcrodr on the 3D operators only. On the 2D Laplacians gcrodr's
// restarted cycles took 2.3–3.3 s per job, ten times any other pair, and
// with them in the cycle the p90 sat on the edge of that one cluster.
var durablePairs = func() [][2]int {
	var out [][2]int
	for s := range durableSolvers {
		for op := range durableOps {
			if durableSolvers[s] == "gcrodr" && op < 2 {
				continue
			}
			out = append(out, [2]int{op, s})
		}
	}
	return out
}()

// durableJob is the i-th job of the closed loop: operators cycle fastest,
// then solvers, so any prefix of the sequence holds a near-even mix and
// every seed runs the same kinds of job in the same order.
func durableJob(seed int64, paths []string, i int) jobspec.Spec {
	p := durablePairs[i%len(durablePairs)]
	spec := jobspec.Default()
	spec.Matrix, spec.Solver, spec.Format = paths[p[0]], durableSolvers[p[1]], "auto"
	spec.RHS = "rand:" + strconv.FormatInt(seed*100003+int64(i), 10)
	spec.Tol, spec.CheckpointEvery, spec.MaxIter = durableTol, durableCheckpoint, durableMaxIter
	return spec
}

func runServeDurable(cfg config) (*report, error) {
	rep := newReport(cfg)
	matDir := filepath.Join(cfg.workdir, "mtx-"+strconv.FormatInt(cfg.seed, 10))
	paths, err := writeOperators(matDir, cfg.seed)
	if err != nil {
		return nil, err
	}
	run, err := newServedRun(cfg)
	if err != nil {
		return nil, err
	}

	var jobs []*job
	var measured time.Duration
	var next atomic.Int64
	err = run.load(time.Duration(cfg.seconds)*time.Second, durableLifetime, func(base string, d time.Duration) {
		start := time.Now()
		jobs = append(jobs, closedLoop(cfg, run.client, base, paths, &next, d)...)
		measured += time.Since(start)
	})
	if err != nil {
		return nil, err
	}
	run.report(rep)

	var lat, first []float64
	for _, j := range jobs {
		rep.record(j.tries...)
		if j.class == classOK {
			lat = append(lat, ms(j.acked.Sub(j.due)))
			if len(j.tries) == 1 {
				first = append(first, lat[len(lat)-1])
			}
		}
	}
	fmt.Printf("serve-durable: %d closed-loop clients for %ds, %d jobs cycling %d operator/solver pairs, format auto, checkpoint every %d, tol %g\n",
		cfg.conns, cfg.seconds, len(jobs), len(durablePairs), durableCheckpoint, durableTol)
	rep.latency(first, lat, 90, 75)
	rep.set("solve_s", typicalSolve(jobs), "s")
	rep.set("throughput_jobs_s", ratio(float64(len(lat)), measured.Seconds()), "jobs/s")

	if cfg.trace && len(jobs) > 0 {
		// One solo replay per operator, each with a different solver.
		if err := servedLayers(cfg, rep, jobs, run.lives, []int{0, 5, 10, 15}); err != nil {
			return nil, err
		}
	}
	return rep, removeAll(matDir)
}

// closedLoop runs cfg.conns clients that each submit the next job of the
// sequence and wait for its reply, resending it while its attempts fail,
// until d has passed; a job sent before then runs to its end.
func closedLoop(cfg config, client *http.Client, base string, paths []string, next *atomic.Int64, d time.Duration) []*job {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var jobs []*job
	var clients sync.WaitGroup
	for c := 0; c < cfg.conns; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for time.Now().Before(deadline) {
				j := &job{spec: durableJob(cfg.seed, paths, int(next.Add(1)-1)), waited: true}
				for j.settle(solveWait(client, base, j)) {
					// failed with attempts left: send it again
				}
				j.due = j.first
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	clients.Wait()
	// Submission order, not the two clients' interleaved completion order.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].first.Before(jobs[b].first) })
	return jobs
}

// solveWait sends j once and waits for its result; it returns the
// attempt's outcome class.
func solveWait(client *http.Client, base string, j *job) string {
	st, v, err := j.post(client, base, "?wait=1")
	switch {
	case errors.Is(err, errUndecodable):
		return classNaN
	case err != nil || st != http.StatusOK:
		return classifyStatus(st, err)
	}
	j.id, j.view = v.ID, &v
	return classifyResult(v.Result, j.spec.Tol)
}
