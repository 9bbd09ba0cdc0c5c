// Command benchlaunch runs the runtime-launch and SpMV benchmarks the CI
// bench job tracks and writes the results as JSON (ns/op plus the
// trace-memoization counters that justify them). It exists so benchmark
// numbers land in a machine-readable artifact instead of scrolling away
// in a CI log:
//
//	go run ./cmd/benchlaunch -strict -o BENCH_pr10.json
//
// The report carries performance gates (spliced launch under 1 µs with
// zero allocations, replay faster than analysis, fused CG launching
// ≥30% fewer tasks than unfused, adaptive format selection within 10%
// of the best hand-picked format, checksummed SpMV within 15% of plain,
// periodic residual replacement within 5% of the launch budget,
// WAL-journaled serving with batched fsyncs at ≥85% of WAL-off
// throughput). A violated gate prints a WARNING;
// with -strict — the CI default — it fails the run with exit status 1
// so regressions break the build instead of scrolling away.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// launchResult is one runtime-launch configuration's measurement.
type launchResult struct {
	NsPerOp float64 `json:"ns_per_op"`
	// AnalysisScansPerIter is the number of dependence-history entries
	// scanned per CG iteration in steady state (0 when replay is on).
	AnalysisScansPerIter float64 `json:"analysis_scans_per_iter"`
	// TraceHits is the number of fully replayed trace instances during
	// the steady-state counting run.
	TraceHits int64 `json:"trace_hits"`
	// LaunchNsAnalyzed/LaunchNsSpliced are the mean wall costs of one
	// Launch call on each path, from the runtime's own timers.
	LaunchNsAnalyzed float64 `json:"launch_ns_analyzed"`
	LaunchNsSpliced  float64 `json:"launch_ns_spliced,omitempty"`
}

// hotPathResult is the dedicated spliced-launch microbenchmark: a
// quiescent runtime replaying a three-task trace through LaunchBatch
// with detached specs and graph retention off — the launch path with
// nothing else on the clock.
type hotPathResult struct {
	// NsPerLaunch is the mean cost of one spliced launch from the
	// runtime's own launch-path timer.
	NsPerLaunch float64 `json:"ns_per_launch"`
	// AllocsPerLaunch is heap allocations per launch on the replay path
	// (testing.AllocsPerRun over whole iterations, divided by launches).
	AllocsPerLaunch float64 `json:"allocs_per_launch"`
	// IterNsPerLaunch is the full replay iteration wall time — trace
	// scope, batch launch, execution, drain — divided by launches.
	IterNsPerLaunch float64 `json:"iter_ns_per_launch"`
}

type spmvResult struct {
	NsPerOp float64 `json:"ns_per_op"`
	MBPerS  float64 `json:"mb_per_s"`
}

// fusionResult is one solver formulation's launch accounting and step
// cost on lap2d:64x64 with trace replay on.
type fusionResult struct {
	// LaunchesPerIter is the steady-state task-launch count per solver
	// iteration.
	LaunchesPerIter float64 `json:"launches_per_iter"`
	// UsPerStep is the wall cost of one Step (launch + execute, drained).
	UsPerStep float64 `json:"us_per_step"`
}

// reductionResult counts global reduction tasks — the "dot.reduce" and
// "dot.batchreduce" combining tasks that stand in for MPI_Allreduce on a
// distributed machine — per solver iteration in steady state. This is
// the communication-avoidance ledger: classical CG pays two reductions
// per iteration, pipelined CG batches them into one, and s-step CG
// amortizes one block Gram reduction over s iterations.
type reductionResult struct {
	// ReductionsPerIter is reduction tasks divided by iterations (one
	// Step is IterationsPerStep iterations for s-step methods).
	ReductionsPerIter float64 `json:"reductions_per_iter"`
	// IterationsPerStep is s for s-step solvers, 1 otherwise.
	IterationsPerStep int `json:"iterations_per_step"`
}

// autoResult compares adaptive format selection against every
// hand-picked format on one matrix structure.
type autoResult struct {
	// FormatNs is the SpMV cost of each hand-picked format.
	FormatNs map[string]float64 `json:"format_ns"`
	// Best names the fastest hand-picked format.
	Best   string  `json:"best"`
	BestNs float64 `json:"best_ns"`
	// AutoNs is the SpMV cost of the AutoSelect composite; Chosen lists
	// the format it picked per row band.
	AutoNs float64  `json:"auto_ns"`
	Chosen []string `json:"chosen"`
	// Ratio is AutoNs/BestNs; the gate requires ≤ 1.10.
	Ratio float64 `json:"ratio"`
}

// sdcResult is the ABFT cost ledger: the checksummed operator product
// against the plain one, and the launch cost of one residual
// replacement amortized over its ReplaceEvery window.
type sdcResult struct {
	// PlainSpMVNs/ChecksumSpMVNs are the drained costs of one planner
	// Matmul sweep on lap2d with SDC detection off and on — the
	// detection-on sweep verifies the source checksum, cross-checks the
	// product against the column-checksum vector, and refreshes the
	// destination checksum.
	PlainSpMVNs    float64 `json:"plain_spmv_ns"`
	ChecksumSpMVNs float64 `json:"checksum_spmv_ns"`
	// SpMVOverhead is checksum/plain; the gate requires ≤ 1.15.
	SpMVOverhead float64 `json:"spmv_overhead"`
	// CGLaunchesPerIter and ReplaceLaunches are deterministic task
	// counts: one steady-state fused CG iteration, and one forced
	// ReplaceResidual (true-residual recompute, batched drift reduction,
	// rebase of r and the search direction).
	CGLaunchesPerIter float64 `json:"cg_launches_per_iter"`
	ReplaceLaunches   float64 `json:"replace_launches"`
	ReplaceEvery      int     `json:"replace_every"`
	// ReplaceOverhead is ReplaceLaunches/(ReplaceEvery ×
	// CGLaunchesPerIter): the fraction of the launch budget a periodic
	// replacement policy adds. The gate requires ≤ 0.05.
	ReplaceOverhead float64 `json:"replace_overhead"`
}

// serverThroughputResult compares the mmserve serving path against
// sequential one-shot mmsolve on the same job mix: N identical cg
// solves, the service pattern the session layer exists for.
type serverThroughputResult struct {
	// Jobs is the submission count; Matrix and Tol the job parameters.
	Jobs   int     `json:"jobs"`
	Matrix string  `json:"matrix"`
	Tol    float64 `json:"tol"`
	// Baseline names how the sequential one-shot cost was measured:
	// "exec" spawns the built mmsolve binary per job (process start,
	// matrix generation, cold runtime, solve — what a shell loop pays),
	// "in-process" falls back to a fresh runtime + matrix load + solve
	// per job without the process cost.
	Baseline        string  `json:"baseline"`
	OneShotNsPerJob float64 `json:"oneshot_ns_per_job"`
	// ServerNsPerJob is wall time over jobs for the full server
	// configuration (coalescing on); ServerSoloNsPerJob disables
	// coalescing, so every job is its own session — the pure
	// session-multiplexing cost.
	ServerNsPerJob     float64 `json:"server_ns_per_job"`
	ServerSoloNsPerJob float64 `json:"server_solo_ns_per_job"`
	// Speedup is one-shot over server (the ≥4x gate); SoloSpeedup the
	// same without coalescing.
	Speedup     float64 `json:"speedup"`
	SoloSpeedup float64 `json:"solo_speedup"`
	// Batches and CoalescedJobs account the multi-RHS fusing;
	// MaxTrueResidual is the worst per-job host-recomputed ‖b − A·x‖
	// across every served job in both configurations (the at-tolerance
	// gate).
	Batches         int64   `json:"batches"`
	CoalescedJobs   int64   `json:"coalesced_jobs"`
	MaxTrueResidual float64 `json:"max_true_residual"`
}

// walOverheadResult prices crash durability: the same job mix through
// the server with the journal off, with the default batched fsync
// policy, and fsyncing every record. Rounds interleave the three
// configurations so a load spike on a shared box lands on all sides of
// the ratio; the gate is on the median per-round ratio, the same
// discipline the SDC overhead measurement uses.
type walOverheadResult struct {
	Jobs       int    `json:"jobs"`
	Rounds     int    `json:"rounds"`
	Matrix     string `json:"matrix"`
	FsyncEvery int    `json:"fsync_every"`
	// Per-side median job cost: journal off, fsync batched every
	// FsyncEvery records, fsync every record.
	OffNsPerJob     float64 `json:"off_ns_per_job"`
	BatchedNsPerJob float64 `json:"batched_ns_per_job"`
	EveryNsPerJob   float64 `json:"every_ns_per_job"`
	// BatchedThroughput is the median over rounds of (off wall)/(batched
	// wall) — batched jobs/s as a fraction of WAL-off jobs/s. The gate
	// requires ≥ 0.85: durability with batched fsyncs may cost at most
	// 15% of throughput.
	BatchedThroughput float64 `json:"batched_throughput"`
	// EveryThroughput is the same ratio for fsync-every-record —
	// reported for the README's durability table, not gated (it prices
	// the strictest setting honestly).
	EveryThroughput float64 `json:"every_throughput"`
}

func measureWALOverhead() walOverheadResult {
	spec := jobspec.Default()
	spec.Matrix = "lap2d:16x16"
	spec.Solver = "cg"
	res := walOverheadResult{Jobs: 32, Rounds: 7, Matrix: spec.Matrix, FsyncEvery: 16}

	tmp, err := os.MkdirTemp("", "benchlaunch-wal-*")
	if err != nil {
		panic("benchlaunch: wal tmpdir: " + err.Error())
	}
	defer os.RemoveAll(tmp)
	round := func(r int, fsyncEvery int) time.Duration {
		cfg := serve.Config{MaxActive: 1, QueueDepth: res.Jobs * 2, CoalesceMax: 1, Tracing: true}
		if fsyncEvery > 0 {
			// A fresh directory per round: each round pays admission and
			// completion journaling, never a growing replay.
			cfg.WALDir = filepath.Join(tmp, fmt.Sprintf("r%d-f%d", r, fsyncEvery))
			cfg.FsyncEvery = fsyncEvery
		}
		wall, worst, _, _ := serveJobsCfg(spec, res.Jobs, cfg)
		if worst > spec.Tol*1.05 {
			panic(fmt.Sprintf("benchlaunch: wal round residual %g misses tol", worst))
		}
		return wall
	}
	var offNs, batchedNs, everyNs, batchedRatio, everyRatio []float64
	for r := 0; r < res.Rounds; r++ {
		off := round(r, 0)
		batched := round(r, res.FsyncEvery)
		every := round(r, 1)
		offNs = append(offNs, float64(off.Nanoseconds())/float64(res.Jobs))
		batchedNs = append(batchedNs, float64(batched.Nanoseconds())/float64(res.Jobs))
		everyNs = append(everyNs, float64(every.Nanoseconds())/float64(res.Jobs))
		batchedRatio = append(batchedRatio, float64(off.Nanoseconds())/float64(batched.Nanoseconds()))
		everyRatio = append(everyRatio, float64(off.Nanoseconds())/float64(every.Nanoseconds()))
	}
	res.OffNsPerJob = medianOf(offNs)
	res.BatchedNsPerJob = medianOf(batchedNs)
	res.EveryNsPerJob = medianOf(everyNs)
	res.BatchedThroughput = medianOf(batchedRatio)
	res.EveryThroughput = medianOf(everyRatio)
	return res
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// serveJobs pushes the job list through a fresh server and returns
// wall-clock, worst true residual, and the coalescing counters.
func serveJobs(spec jobspec.Spec, jobs int, coalesceMax int) (time.Duration, float64, int64, int64) {
	return serveJobsCfg(spec, jobs, serve.Config{
		MaxActive: 1, QueueDepth: jobs * 2, CoalesceMax: coalesceMax, Tracing: true,
	})
}

// serveJobsCfg is serveJobs with the full server configuration exposed
// (the WAL overhead section varies durability settings).
func serveJobsCfg(spec jobspec.Spec, jobs int, cfg serve.Config) (time.Duration, float64, int64, int64) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		panic("benchlaunch: start server: " + err.Error())
	}
	start := time.Now()
	handles := make([]*serve.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := srv.Submit(spec)
		if err != nil {
			panic("benchlaunch: server rejected job: " + err.Error())
		}
		handles = append(handles, j)
	}
	worst := 0.0
	for _, j := range handles {
		r := j.Result()
		if !r.Converged || r.Err != "" {
			panic(fmt.Sprintf("benchlaunch: served job failed: converged=%v err=%q", r.Converged, r.Err))
		}
		if r.TrueResidual > worst {
			worst = r.TrueResidual
		}
	}
	wall := time.Since(start)
	m := srv.Metrics()
	srv.Drain()
	return wall, worst, m.Batches, m.CoalescedJobs
}

func measureServerThroughput() serverThroughputResult {
	spec := jobspec.Default()
	spec.Matrix = "lap2d:32x32"
	spec.Solver = "cg"
	res := serverThroughputResult{Jobs: 64, Matrix: spec.Matrix, Tol: spec.Tol}

	// Sequential one-shot baseline: the built CLI, spawned per job, like
	// a shell loop over inputs would. Falls back to an in-process loop
	// (fresh runtime + matrix generation per job, no process cost — a
	// strictly harder baseline) if the toolchain is unavailable.
	oneShot := func() time.Duration {
		bin := filepath.Join(os.TempDir(), fmt.Sprintf("benchlaunch-mmsolve-%d", os.Getpid()))
		if err := exec.Command("go", "build", "-o", bin, "./cmd/mmsolve").Run(); err == nil {
			defer os.Remove(bin)
			start := time.Now()
			for i := 0; i < res.Jobs; i++ {
				cmd := exec.Command(bin, "-solver", spec.Solver, "-tol", fmt.Sprint(spec.Tol), spec.Matrix)
				cmd.Stdout = nil
				if err := cmd.Run(); err != nil {
					panic("benchlaunch: one-shot mmsolve failed: " + err.Error())
				}
			}
			res.Baseline = "exec"
			return time.Since(start)
		}
		res.Baseline = "in-process"
		start := time.Now()
		for i := 0; i < res.Jobs; i++ {
			rt := taskrt.New()
			a, err := jobspec.LoadMatrix(spec.Matrix)
			if err != nil {
				panic(err)
			}
			out := serve.RunSolve(a, spec, serve.Options{Session: rt.DefaultSession(), Tracing: true})
			if !out.Converged {
				panic("benchlaunch: one-shot solve failed")
			}
		}
		return time.Since(start)
	}()
	res.OneShotNsPerJob = float64(oneShot.Nanoseconds()) / float64(res.Jobs)

	soloWall, soloWorst, _, _ := serveJobs(spec, res.Jobs, 1)
	res.ServerSoloNsPerJob = float64(soloWall.Nanoseconds()) / float64(res.Jobs)
	res.SoloSpeedup = res.OneShotNsPerJob / res.ServerSoloNsPerJob

	wall, worst, batches, coalesced := serveJobs(spec, res.Jobs, 16)
	res.ServerNsPerJob = float64(wall.Nanoseconds()) / float64(res.Jobs)
	res.Speedup = res.OneShotNsPerJob / res.ServerNsPerJob
	res.Batches = batches
	res.CoalescedJobs = coalesced
	res.MaxTrueResidual = worst
	if soloWorst > res.MaxTrueResidual {
		res.MaxTrueResidual = soloWorst
	}
	return res
}

type report struct {
	RuntimeLaunch map[string]launchResult `json:"runtime_launch"`
	LaunchHotPath hotPathResult           `json:"launch_hot_path"`
	SpMVFormats   map[string]spmvResult   `json:"spmv_formats"`
	// SolverFusion compares fused and per-operation solver formulations,
	// plus pipelined CG, on the same system.
	SolverFusion map[string]fusionResult `json:"solver_fusion"`
	// FormatAuto is the adaptive-selection sweep, one entry per matrix
	// structure.
	FormatAuto map[string]autoResult `json:"format_auto"`
	// ReductionsPerIter is the communication-avoidance ledger: global
	// reductions per iteration for the CG family.
	ReductionsPerIter map[string]reductionResult `json:"reductions_per_iter"`
	// SDCOverhead prices the silent-data-corruption defenses.
	SDCOverhead sdcResult `json:"sdc_overhead"`
	// ServerThroughput compares the long-running job server against
	// sequential one-shot CLI runs.
	ServerThroughput serverThroughputResult `json:"server_throughput"`
	// WALOverhead prices crash durability: served throughput with the
	// journal off vs batched-fsync vs fsync-every-record.
	WALOverhead walOverheadResult `json:"wal_overhead"`
}

// solverPlanner builds a real (non-virtual) planner on lap2d:64x64 and
// the named solver on it.
func solverPlanner(tracing bool, mk func(p *core.Planner) solvers.Solver) (*core.Planner, solvers.Solver) {
	a := sparse.Laplacian2D(64, 64)
	n := a.Domain().Size()
	p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
	si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), 4))
	ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), 4))
	p.AddOperator(a, si, ri)
	p.Finalize()
	p.SetTracing(tracing)
	return p, mk(p)
}

// cgPlanner builds the same real (non-virtual) CG setup
// BenchmarkRuntimeLaunch uses.
func cgPlanner(tracing bool) (*core.Planner, solvers.Solver) {
	return solverPlanner(tracing, func(p *core.Planner) solvers.Solver { return solvers.NewCG(p) })
}

func measureLaunch(tracing bool) launchResult {
	// Deterministic counting run: steady-state scans and hits per
	// iteration over a fixed window, after record+calibrate warmup.
	const window = 50
	p, s := cgPlanner(tracing)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	p.Drain()
	before := p.Runtime().Stats()
	for i := 0; i < window; i++ {
		s.Step()
	}
	p.Drain()
	after := p.Runtime().Stats()

	// Timed run, fresh planner so the benchmark harness controls N.
	bres := testing.Benchmark(func(b *testing.B) {
		p, s := cgPlanner(tracing)
		for i := 0; i < 3; i++ {
			s.Step()
		}
		p.Drain()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		p.Drain()
	})

	analyzed, spliced := p.Runtime().LaunchTiming()
	res := launchResult{
		NsPerOp:              float64(bres.NsPerOp()),
		AnalysisScansPerIter: float64(after.AnalysisScans-before.AnalysisScans) / window,
		TraceHits:            after.TraceHits - before.TraceHits,
		LaunchNsAnalyzed:     float64(analyzed.Mean().Nanoseconds()),
	}
	if spliced.Count > 0 {
		res.LaunchNsSpliced = float64(spliced.Mean().Nanoseconds())
	}
	return res
}

// measureHotPath runs the spliced-launch microbenchmark: three detached
// stable-region tasks per trace instance, graph retention off, pools
// warm — the steady-state replay launch with nothing else on the clock.
func measureHotPath() hotPathResult {
	rt := taskrt.New()
	rt.SetGraphRetention(false)
	sp := index.NewSpace("D", 256)
	a := region.New("hp.a", sp, "x")
	b := region.New("hp.b", sp, "x")
	ref := func(r *region.Region, priv region.Privilege) region.Ref {
		return region.Ref{Region: r.ID(), Field: "x", Subset: index.Span(0, 255), Priv: priv}
	}
	noop := func() float64 { return 0 }
	specs := []taskrt.TaskSpec{
		{Name: "produce", Refs: []region.Ref{ref(a, region.WriteDiscard)}, Run: noop, Detached: true},
		{Name: "transform", Refs: []region.Ref{ref(a, region.ReadOnly), ref(b, region.WriteDiscard)}, Run: noop, Detached: true},
		{Name: "consume", Refs: []region.Ref{ref(b, region.ReadWrite)}, Run: noop, Detached: true},
	}
	iter := func() {
		rt.BeginTrace("hotpath")
		rt.LaunchBatch(specs)
		rt.EndTrace()
		rt.Drain()
	}
	for i := 0; i < 10000; i++ {
		iter()
	}
	allocs := testing.AllocsPerRun(2000, iter) / float64(len(specs))

	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		iter()
	}
	wall := time.Since(start)
	_, spliced := rt.LaunchTiming()
	return hotPathResult{
		NsPerLaunch:     float64(spliced.Mean().Nanoseconds()),
		AllocsPerLaunch: allocs,
		IterNsPerLaunch: float64(wall.Nanoseconds()) / float64(n*len(specs)),
	}
}

// measureFusion reports launches/iteration and µs/step for one solver
// formulation, tracing on: 3 warmup steps (trace record + calibrate),
// then a fixed counting window for the launch rate and a harness-timed
// run for the step cost.
func measureFusion(mk func(p *core.Planner) solvers.Solver) fusionResult {
	const window = 50
	p, s := solverPlanner(true, mk)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	p.Drain()
	before := p.Runtime().Stats().Launched
	for i := 0; i < window; i++ {
		s.Step()
	}
	p.Drain()
	launches := float64(p.Runtime().Stats().Launched-before) / window

	bres := testing.Benchmark(func(b *testing.B) {
		p, s := solverPlanner(true, mk)
		for i := 0; i < 3; i++ {
			s.Step()
		}
		p.Drain()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		p.Drain()
	})
	return fusionResult{
		LaunchesPerIter: launches,
		UsPerStep:       float64(bres.NsPerOp()) / 1e3,
	}
}

func measureSolverFusion() map[string]fusionResult {
	return map[string]fusionResult{
		"cg_fused":         measureFusion(func(p *core.Planner) solvers.Solver { return solvers.NewCG(p) }),
		"cg_unfused":       measureFusion(func(p *core.Planner) solvers.Solver { return solvers.NewCGUnfused(p) }),
		"pipecg":           measureFusion(func(p *core.Planner) solvers.Solver { return solvers.NewPipeCG(p) }),
		"bicgstab_fused":   measureFusion(func(p *core.Planner) solvers.Solver { return solvers.NewBiCGStab(p) }),
		"bicgstab_unfused": measureFusion(func(p *core.Planner) solvers.Solver { return solvers.NewBiCGStabUnfused(p) }),
	}
}

// measureReductions counts the reduction tasks one solver launches over
// a steady-state window, with tracing and graph retention on, and
// normalizes by iterations (window × itersPerStep).
func measureReductions(itersPerStep int, mk func(p *core.Planner) solvers.Solver) reductionResult {
	const window = 40
	p, s := solverPlanner(true, mk)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	p.Drain()
	before := p.Runtime().Graph().Len()
	for i := 0; i < window; i++ {
		s.Step()
	}
	p.Drain()
	g := p.Runtime().Graph()
	count := 0
	for _, n := range g.Nodes[before:] {
		if n.Name == "dot.reduce" || n.Name == "dot.batchreduce" {
			count++
		}
	}
	return reductionResult{
		ReductionsPerIter: float64(count) / float64(window*itersPerStep),
		IterationsPerStep: itersPerStep,
	}
}

func measureReductionLedger() map[string]reductionResult {
	return map[string]reductionResult{
		"cg":       measureReductions(1, func(p *core.Planner) solvers.Solver { return solvers.NewCG(p) }),
		"pipecg":   measureReductions(1, func(p *core.Planner) solvers.Solver { return solvers.NewPipeCG(p) }),
		"sstep-cg": measureReductions(4, func(p *core.Planner) solvers.Solver { return solvers.NewSStepCG(p, 4) }),
	}
}

func measureSpMV() map[string]spmvResult {
	csr := sparse.Laplacian2D(64, 64)
	n := csr.Domain().Size()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) + 0.5
	}
	out := make(map[string]spmvResult, len(sparse.Formats)+1)
	bench := func(name string, nnz int64, mul func()) {
		bres := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(nnz * 16)
			for i := 0; i < b.N; i++ {
				mul()
			}
		})
		ns := float64(bres.NsPerOp())
		out[name] = spmvResult{
			NsPerOp: ns,
			MBPerS:  float64(nnz*16) / ns * 1e9 / 1e6,
		}
	}
	for _, f := range sparse.Formats {
		mat := sparse.Convert(csr, f)
		full := mat.Kernel().Set
		bench(f, mat.NNZ(), func() { mat.MultiplyAddPart(y, x, full) })
	}
	op := sparse.NewStencilOperator(sparse.Stencil2D5, index.NewGrid(64, 64))
	full := op.Kernel().Set
	bench("MatrixFree", op.NNZ(), func() { op.MultiplyAddPart(y, x, full) })
	return out
}

// spmvNs times y += A·x — the Part kernel over the full kernel space, the
// kernel solves run — with a fixed budget: repeated timed batches, best
// batch mean kept. Cheaper than testing.Benchmark for the 30-cell auto
// sweep, and the min is what a tuner should be judged against.
func spmvNs(m sparse.Matrix, y, x []float64) float64 {
	full := m.Kernel().Set
	m.MultiplyAddPart(y, x, full) // warm caches and lazy structures
	best := float64(0)
	for r := 0; r < 5; r++ {
		const batch = 50
		start := time.Now()
		for i := 0; i < batch; i++ {
			m.MultiplyAddPart(y, x, full)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(batch)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// spmvNsInterleaved times y += A·x (the Part kernel over the full
// kernel space) for every candidate in lockstep rounds (one batch per
// candidate per round) and returns each candidate's best batch mean.
func spmvNsInterleaved(ms []sparse.Matrix, y, x []float64, batch int) []float64 {
	full := make([]index.IntervalSet, len(ms))
	for i, m := range ms {
		full[i] = m.Kernel().Set
		m.MultiplyAddPart(y, x, full[i]) // warm caches and lazy structures
	}
	best := make([]float64, len(ms))
	const rounds = 9
	for r := 0; r < rounds; r++ {
		for i, m := range ms {
			start := time.Now()
			for b := 0; b < batch; b++ {
				m.MultiplyAddPart(y, x, full[i])
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(batch)
			if best[i] == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

// autoMatrices are the structures the adaptive tuner is judged on: a
// banded stencil, a scattered random matrix, and a mixed structure whose
// bands genuinely want different formats.
func autoMatrices() map[string]*sparse.CSR {
	r := rand.New(rand.NewSource(42))
	// The scattered matrix is big enough that x far exceeds L2: the
	// kernels are then genuinely gather-bound, which is the regime the
	// tuner's scattered-structure rates model. (A small random matrix
	// whose x fits in L1 measures loop microarchitecture, not structure,
	// and its format ranking flips from process to process with heap
	// layout luck.)
	random := func(rows, cols int64, perRow int) *sparse.CSR {
		seen := map[[2]int64]bool{}
		var coords []sparse.Coord
		add := func(i, j int64, v float64) {
			if !seen[[2]int64{i, j}] {
				seen[[2]int64{i, j}] = true
				coords = append(coords, sparse.Coord{Row: i, Col: j, Val: v})
			}
		}
		for i := int64(0); i < rows; i++ {
			add(i, i%cols, 1)
			for e := 0; e < perRow; e++ {
				add(i, r.Int63n(cols), r.Float64()-0.5)
			}
		}
		return sparse.CSRFromCoords(rows, cols, coords)
	}
	var mixed []sparse.Coord
	const mn = 512
	for i := int64(0); i < 64; i++ { // dense head block
		for j := int64(0); j < 64; j++ {
			mixed = append(mixed, sparse.Coord{Row: i, Col: j, Val: r.Float64() + 0.1})
		}
	}
	for i := int64(64); i < mn; i++ { // tridiagonal tail
		for _, j := range []int64{i - 1, i, i + 1} {
			if j >= 0 && j < mn {
				mixed = append(mixed, sparse.Coord{Row: i, Col: j, Val: r.Float64() + 0.1})
			}
		}
	}
	return map[string]*sparse.CSR{
		"lap2d_64x64":     sparse.Laplacian2D(64, 64),
		"random_32768":    random(32768, 32768, 5),
		"mixed_dense_tri": sparse.CSRFromCoords(mn, mn, mixed),
	}
}

func measureFormatAuto() map[string]autoResult {
	out := make(map[string]autoResult)
	for name, a := range autoMatrices() {
		rows, cols := sparse.Dims(a)
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = float64(i%7) + 0.5
		}
		// Time every candidate interleaved, round-robin, across several
		// independently converted instances each, and keep each
		// candidate's overall best. Sequential passes let a system-wide
		// slowdown land entirely on whichever candidate happens to be
		// under the timer, and a single allocation can be 10–20% slower
		// than an identical twin by page-placement luck alone; both
		// effects swing the auto/best ratio far more than any real format
		// difference, so both are averaged out of the comparison.
		// Formats whose storage explodes on this structure (dense arrays
		// of a huge sparse matrix, DIA with one diagonal per entry) are
		// left out of the hand-picked sweep: nobody picks a layout that
		// inflates the matrix by orders of magnitude, and converting it
		// would dominate the benchmark's memory and time.
		prof := sparse.ProfileCSR(a)
		storage := func(f string) float64 {
			switch f {
			case "Dense":
				return 8 * float64(prof.Rows) * float64(prof.Cols)
			case "DIA":
				return 8 * float64(prof.Diags) * float64(prof.Cols)
			case "ELL":
				return 16 * float64(prof.Rows) * float64(prof.MaxRowLen)
			case "ELL'":
				return 16 * float64(prof.Cols) * float64(prof.MaxColLen)
			}
			return 24 * float64(prof.NNZ)
		}
		var formats, skipped []string
		for _, f := range sparse.Formats {
			if storage(f) > 256<<20 {
				skipped = append(skipped, f)
				continue
			}
			formats = append(formats, f)
		}
		if len(skipped) > 0 {
			fmt.Printf("benchlaunch: %s: skipping %s (storage would exceed 256 MiB)\n",
				name, strings.Join(skipped, ", "))
		}
		batch := 50
		if prof.NNZ > 100_000 {
			batch = 5 // keep big-matrix timing slices a few ms each
		}

		const trials = 3
		tuned := sparse.AutoSelect(a, 4)
		var cands []sparse.Matrix
		for t := 0; t < trials; t++ {
			for _, f := range formats {
				cands = append(cands, sparse.Convert(a, f))
			}
			if t == 0 {
				cands = append(cands, tuned)
			} else {
				cands = append(cands, sparse.AutoSelect(a, 4))
			}
		}
		ns := spmvNsInterleaved(cands, y, x, batch)

		res := autoResult{FormatNs: make(map[string]float64, len(formats))}
		stride := len(formats) + 1
		for t := 0; t < trials; t++ {
			for i, f := range formats {
				v := ns[t*stride+i]
				if cur, ok := res.FormatNs[f]; !ok || v < cur {
					res.FormatNs[f] = v
				}
			}
			if v := ns[t*stride+stride-1]; res.AutoNs == 0 || v < res.AutoNs {
				res.AutoNs = v
			}
		}
		for _, f := range formats {
			if res.Best == "" || res.FormatNs[f] < res.BestNs {
				res.Best, res.BestNs = f, res.FormatNs[f]
			}
		}
		res.Chosen = tuned.SelectedFormats()
		res.Ratio = res.AutoNs / res.BestNs
		out[name] = res
	}
	return out
}

// measureSDCOverhead prices the SDC defenses: the checksummed Matmul
// sweep against the plain one (timed best-of-batches, replay on for
// both, like spmvNs), and the deterministic launch count of one forced
// residual replacement against the steady-state CG launch rate.
func measureSDCOverhead() sdcResult {
	type rig struct {
		p        *core.Planner
		dst, src core.VecID
	}
	build := func(detect bool) rig {
		a := sparse.Laplacian2D(128, 128)
		n := a.Domain().Size()
		p := core.NewPlanner(core.Config{Machine: machine.Lassen(1)})
		si := p.AddSolVector(make([]float64, n), index.EqualPartition(index.NewSpace("D", n), 4))
		ri := p.AddRHSVector(make([]float64, n), index.EqualPartition(index.NewSpace("R", n), 4))
		p.AddOperator(a, si, ri)
		p.Finalize()
		p.SetTracing(true)
		if detect {
			p.EnableSDCDetection(0)
		}
		src := p.AllocateWorkspace(core.SolShape)
		dst := p.AllocateWorkspace(core.RhsShape)
		for i := 0; i < 10; i++ { // trace record + calibrate
			p.Matmul(dst, src)
		}
		p.Drain()
		return rig{p: p, dst: dst, src: src}
	}
	batchNs := func(r rig) float64 {
		const batch = 50
		start := time.Now()
		for i := 0; i < batch; i++ {
			r.p.Matmul(r.dst, r.src)
		}
		r.p.Drain()
		return float64(time.Since(start).Nanoseconds()) / batch
	}
	// Interleave the plain and checksummed batches so a load spike on a
	// shared box hits both sides of the ratio instead of skewing one:
	// adjacent batches are load-matched, so each round's ratio is stable
	// even when absolute times drift. The overhead is the median of the
	// per-round ratios; the ns fields report the per-side medians.
	plain, chk := build(false), build(true)
	var plainNs, chkNs, ratios []float64
	for r := 0; r < 15; r++ {
		pn, cn := batchNs(plain), batchNs(chk)
		plainNs = append(plainNs, pn)
		chkNs = append(chkNs, cn)
		ratios = append(ratios, cn/pn)
	}
	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	res := sdcResult{
		PlainSpMVNs:    median(plainNs),
		ChecksumSpMVNs: median(chkNs),
		ReplaceEvery:   50,
	}
	res.SpMVOverhead = median(ratios)

	p, s := cgPlanner(true)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	p.Drain()
	const window = 50
	before := p.Runtime().Stats().Launched
	for i := 0; i < window; i++ {
		s.Step()
	}
	p.Drain()
	res.CGLaunchesPerIter = float64(p.Runtime().Stats().Launched-before) / window
	before = p.Runtime().Stats().Launched
	s.(solvers.ResidualReplacer).ReplaceResidual(0)
	p.Drain()
	res.ReplaceLaunches = float64(p.Runtime().Stats().Launched - before)
	res.ReplaceOverhead = res.ReplaceLaunches / (float64(res.ReplaceEvery) * res.CGLaunchesPerIter)
	return res
}

func main() {
	out := flag.String("o", "BENCH_pr10.json", "output file ('-' for stdout)")
	strict := flag.Bool("strict", false, "exit non-zero when a performance gate fails (CI sets this)")
	flag.Parse()

	// The SDC ratio gate is the tightest (≤ 1.15 on a ~1.10 measurement),
	// so it runs first: the big-matrix sections below leave enough heap
	// behind that GC cycles drain the launch-state pools mid-measurement,
	// taxing the task-heavier checksummed sweep more than the plain one.
	sdc := measureSDCOverhead()

	rep := report{
		RuntimeLaunch: map[string]launchResult{
			"replay_off": measureLaunch(false),
			"replay_on":  measureLaunch(true),
		},
		LaunchHotPath:     measureHotPath(),
		SpMVFormats:       measureSpMV(),
		SolverFusion:      measureSolverFusion(),
		FormatAuto:        measureFormatAuto(),
		ReductionsPerIter: measureReductionLedger(),
		SDCOverhead:       sdc,
		ServerThroughput:  measureServerThroughput(),
		WALOverhead:       measureWALOverhead(),
	}

	var failures []string
	gate := func(ok bool, format string, args ...any) {
		if !ok {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	hp := rep.LaunchHotPath
	gate(hp.NsPerLaunch < 1000,
		"spliced launch %.0f ns/launch, gate < 1000 ns", hp.NsPerLaunch)
	gate(hp.AllocsPerLaunch == 0,
		"replay path allocates %.2f allocs/launch, gate == 0", hp.AllocsPerLaunch)
	// Whole-step ns/op is execution-dominated and too noisy to gate on a
	// shared machine; gate the deterministic replay claims instead: replay
	// eliminates analysis scans, and the spliced launch path beats the
	// analyzed one under identical load.
	on := rep.RuntimeLaunch["replay_on"]
	gate(on.AnalysisScansPerIter == 0,
		"replay_on still scans %.0f history entries/iter, gate == 0", on.AnalysisScansPerIter)
	gate(on.LaunchNsSpliced > 0 && on.LaunchNsSpliced < on.LaunchNsAnalyzed,
		"spliced launch (%.0f ns) not cheaper than analyzed (%.0f ns)",
		on.LaunchNsSpliced, on.LaunchNsAnalyzed)
	f, u := rep.SolverFusion["cg_fused"], rep.SolverFusion["cg_unfused"]
	gate(f.LaunchesPerIter <= 0.7*u.LaunchesPerIter,
		"fused CG launches/iter (%.1f) not >=30%% below unfused (%.1f)", f.LaunchesPerIter, u.LaunchesPerIter)
	for name, ar := range rep.FormatAuto {
		gate(ar.Ratio <= 1.10,
			"%s: auto (%.0f ns) is %.2fx the best hand-picked format %s (%.0f ns), gate <= 1.10x",
			name, ar.AutoNs, ar.Ratio, ar.Best, ar.BestNs)
	}
	// Communication-avoidance gates: these counts are deterministic graph
	// structure, not timings, so equality is exact. s-step CG must pay
	// exactly one global reduction per s iterations — the paper-level
	// claim the matrix-powers kernel exists to earn.
	for name, want := range map[string]float64{"cg": 2, "pipecg": 1, "sstep-cg": 0.25} {
		rr := rep.ReductionsPerIter[name]
		gate(rr.ReductionsPerIter == want,
			"%s performs %.3g reductions/iteration, gate == %.3g", name, rr.ReductionsPerIter, want)
	}
	sdc = rep.SDCOverhead
	gate(sdc.SpMVOverhead <= 1.15,
		"checksummed SpMV %.2fx plain (%.0f vs %.0f ns), gate <= 1.15x",
		sdc.SpMVOverhead, sdc.ChecksumSpMVNs, sdc.PlainSpMVNs)
	gate(sdc.ReplaceOverhead <= 0.05,
		"residual replacement adds %.1f%% launches/iter at ReplaceEvery=%d, gate <= 5%%",
		sdc.ReplaceOverhead*100, sdc.ReplaceEvery)
	st := rep.ServerThroughput
	gate(st.Speedup >= 4,
		"server throughput %.2fx sequential one-shot mmsolve (%s baseline), gate >= 4x",
		st.Speedup, st.Baseline)
	gate(st.MaxTrueResidual <= st.Tol*1.05,
		"served job true residual %.3g misses tol %.3g", st.MaxTrueResidual, st.Tol)
	wo := rep.WALOverhead
	gate(wo.BatchedThroughput >= 0.85,
		"WAL with batched fsyncs serves %.2fx the WAL-off throughput (%.0f vs %.0f ns/job), gate >= 0.85x",
		wo.BatchedThroughput, wo.BatchedNsPerJob, wo.OffNsPerJob)
	for _, msg := range failures {
		fmt.Fprintf(os.Stderr, "benchlaunch: WARNING: %s\n", msg)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchlaunch:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchlaunch:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *strict && len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchlaunch: %d gate(s) failed under -strict\n", len(failures))
		os.Exit(1)
	}
}
