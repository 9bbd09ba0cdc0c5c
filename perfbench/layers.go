package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
	"kdrsolvers/internal/wal"
)

// Per-layer metrics, measured from outside each layer: timed calls into
// the public functions of jobspec, sparse, serve, wal and taskrt, and
// the counters the program already exposes (JobResult, GET /jobs/{id},
// GET /metrics, taskrt.Stats and LaunchTiming). A layer the workload's
// path does not call reports 0.

// soloProfile is one in-process RunSolve with a span recorder attached.
type soloProfile struct {
	out               serve.JobResult
	spans             []obs.Span
	report            obs.Report
	st                taskrt.Stats
	analyzed, spliced obs.TimerSnapshot
}

// soloRun solves spec on a fresh runtime with trace memoization on (the
// CLI and server default) and every task recorded.
func soloRun(a *sparse.CSR, spec jobspec.Spec, tele func(int, float64)) (serve.JobResult, *soloProfile) {
	rt := taskrt.New()
	rec := obs.NewRecorder()
	out := serve.RunSolve(a, spec, serve.Options{Session: rt.DefaultSession(), Tracing: true, Recorder: rec, Telemetry: tele})
	p := &soloProfile{out: out, spans: rec.Spans(), st: rt.Stats()}
	p.report = obs.Analyze(p.spans, rt.Graph().DepLists())
	p.analyzed, p.spliced = rt.LaunchTiming()
	return out, p
}

// plainRun solves spec on a fresh runtime without a recorder.
func plainRun(a *sparse.CSR, spec jobspec.Spec) serve.JobResult {
	rt := taskrt.New()
	return serve.RunSolve(a, spec, serve.Options{Session: rt.DefaultSession(), Tracing: true})
}

// spanKind sorts a task name into the core layer it prices.
func spanKind(name string) string {
	switch {
	case name == "matmul" || name == "matmulT" || name == "powers.sweep":
		return "matmul"
	case strings.HasPrefix(name, "dot."):
		return "dot"
	case strings.HasPrefix(name, "fused."), name == "xpay", name == "axpy", name == "scal",
		name == "copy", name == "zero", name == "psolve":
		return "sweep"
	}
	return "other"
}

// idleShare is the share of [first launch, last end] during which no
// recorded task was running.
func idleShare(spans []obs.Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(spans))
	lo, hi := spans[0].Launch, spans[0].End
	for _, s := range spans {
		iv = append(iv, [2]float64{s.Start, s.End})
		lo, hi = min(lo, s.Launch), max(hi, s.End)
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi float64
	curLo, curHi = iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	covered += curHi - curLo
	return ratio(hi-lo-covered, hi-lo)
}

// setSoloLayers reports the core and taskrt timing layers from recorded
// solo solves, and trace.overhead_ratio as their elapsed time over plainS,
// the summed elapsed seconds of the same solves unrecorded.
func setSoloLayers(rep *report, profs []*soloProfile, plainS float64) {
	kinds := map[string]float64{}
	var iters float64
	var tasks, queue, busy, wall, crit, idle, tracedS float64
	var an, sp obs.TimerSnapshot
	for _, p := range profs {
		iters += float64(p.out.Iterations)
		for _, s := range p.spans {
			kinds[spanKind(s.Name)] += s.Duration()
			queue += s.QueueLatency()
			tasks++
		}
		busy += p.report.TotalBusy
		wall += p.report.WallTime
		crit += p.report.CriticalPathTime
		idle += idleShare(p.spans) * p.report.WallTime
		tracedS += p.out.Elapsed.Seconds()
		an.Total += p.analyzed.Total
		an.Count += p.analyzed.Count
		sp.Total += p.spliced.Total
		sp.Count += p.spliced.Count
	}
	rep.set("core.matmul_us_per_iter", ratio(kinds["matmul"]*1e6, iters), "us")
	rep.set("core.sweep_us_per_iter", ratio(kinds["sweep"]*1e6, iters), "us")
	rep.set("core.dot_us_per_iter", ratio(kinds["dot"]*1e6, iters), "us")
	rep.set("taskrt.busy_frac", ratio(busy, wall*float64(runtime.GOMAXPROCS(0))), "share")
	rep.set("taskrt.idle_frac", ratio(idle, wall), "share")
	rep.set("taskrt.queue_us_per_task", ratio(queue*1e6, tasks), "us")
	rep.set("taskrt.critpath_frac", ratio(crit, wall), "share")
	rep.set("taskrt.launch_ns_analyzed", ratio(float64(an.Total), float64(an.Count)), "ns")
	rep.set("taskrt.launch_ns_spliced", ratio(float64(sp.Total), float64(sp.Count)), "ns")
	rep.set("trace.overhead_ratio", ratio(tracedS, plainS), "ratio")
	fmt.Printf("solo: %d recorded in-process solve(s), %d tasks, %.0f iterations, recorded/plain elapsed %.3f\n",
		len(profs), int(tasks), iters, ratio(tracedS, plainS))
}

// setRuntimeCounters reports the trace-memoization and analysis
// counters of a taskrt.Stats (or a /metrics delta of one).
func setRuntimeCounters(rep *report, st taskrt.Stats) {
	inst := st.TraceHits + st.TraceMisses + st.TraceFallbacks
	rep.set("taskrt.trace_hit_share", ratio(float64(st.TraceHits), float64(inst)), "share")
	rep.set("taskrt.analysis_scans_per_launch", ratio(float64(st.AnalysisScans), float64(st.Launched)), "count")
}

// setRefLayers runs the hand-written CG on a, b and prices the
// framework's per-iteration time (frameworkIterS seconds) against it.
func setRefLayers(rep *report, a *sparse.CSR, b []float64, tol float64, frameworkIterS float64) {
	it, per := refCG(a, b, tol, 100000)
	rep.set("ref.cg_iter_ms", ms(per), "ms")
	rep.set("ref.framework_ratio", ratio(frameworkIterS, per.Seconds()), "ratio")
	fmt.Printf("ref: hand-written serial CSR CG, %d iterations at %.4f ms/iter; framework %.4f ms/iter\n",
		it, ms(per), frameworkIterS*1e3)
}

// setSpMVLayers times one full-K MultiplyAddPart of a, the kernel the
// planner's matmul task calls, and reports bytes computed from the CSR
// array sizes: values and column indices once, row pointers once, x once
// and y read and written.
func setSpMVLayers(rep *report, a *sparse.CSR) {
	rows, cols := sparse.Dims(a)
	nnz := a.NNZ()
	x, y := make([]float64, cols), make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	full := index.NewIntervalSet(index.Interval{Lo: 0, Hi: nnz - 1})
	var ts []float64
	for i := 0; i < 11; i++ {
		t0 := time.Now()
		a.MultiplyAddPart(y, x, full)
		if i > 0 { // the first call warms the caches
			ts = append(ts, ms(time.Since(t0)))
		}
	}
	bytes := float64(16*nnz + 8*(rows+1) + 8*cols + 16*rows)
	t := median(ts)
	rep.set("sparse.spmv_ms", t, "ms")
	rep.set("sparse.spmv_gbs", ratio(bytes/1e9, t/1e3), "GB/s")
	rep.set("sparse.working_set_mb", bytes/1e6, "MB")
	fmt.Printf("sparse: CSR MultiplyAddPart(full K) on %dx%d, %d nnz: %.4f ms, %.3f MB computed working set (host LLC in the host line)\n",
		rows, cols, nnz, t, bytes/1e6)
}

// setWALLayers reports the journal's bytes per job, then times
// wal.Append and wal.Sync directly on a fresh log with the run's own
// record sizes and the server's default fsync batching (16 records).
func setWALLayers(rep *report, sizes []int, bytes int64, scratch string, jobs float64) error {
	rep.set("wal.bytes_per_job", ratio(float64(bytes), jobs), "B")
	const maxRecords, fsyncEvery = 512, 16
	if len(sizes) > maxRecords { // evenly spaced sample, in journal order
		s := make([]int, maxRecords)
		for i := range s {
			s[i] = sizes[i*len(sizes)/maxRecords]
		}
		sizes = s
	}
	if err := removeAll(scratch); err != nil {
		return err
	}
	ml, err := wal.Open(scratch, wal.Options{FsyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	var app, syn []float64
	rng := rand.New(rand.NewSource(1))
	for i, n := range sizes {
		p := make([]byte, n)
		rng.Read(p)
		t0 := time.Now()
		if err := ml.Append(p); err != nil {
			ml.Close()
			return err
		}
		app = append(app, float64(time.Since(t0))/1e3)
		if (i+1)%fsyncEvery == 0 {
			t0 = time.Now()
			if err := ml.Sync(); err != nil {
				ml.Close()
				return err
			}
			syn = append(syn, float64(time.Since(t0))/1e3)
		}
	}
	if err := ml.Close(); err != nil {
		return err
	}
	rep.set("wal.append_us_p50", percentile(app, 50), "us")
	rep.set("wal.append_us_p99", percentile(app, 99), "us")
	rep.set("wal.fsync_us_p50", percentile(syn, 50), "us")
	rep.set("wal.fsync_us_p99", percentile(syn, 99), "us")
	fmt.Printf("wal: journals held %d bytes for %.0f jobs; direct Append/Sync timed on %d records of their sizes, %d syncs\n",
		bytes, jobs, len(app), len(syn))
	return removeAll(scratch)
}

// zeroLayers reports layers the workload's path never calls.
func zeroLayers(rep *report, unit string, names ...string) {
	for _, n := range names {
		rep.set(n, 0, unit)
	}
}

// timeLoad reports the median time of jobspec.LoadMatrix over the given
// matrix arguments, each loaded three times.
func timeLoad(rep *report, args ...string) error {
	var ts []float64
	for _, arg := range args {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := jobspec.LoadMatrix(arg); err != nil {
				return err
			}
			ts = append(ts, ms(time.Since(t0)))
		}
	}
	rep.set("jobspec.load_ms", median(ts), "ms")
	return nil
}

// writeSpans writes a run's spans once, at the end, as a Chrome trace
// under the work directory.
func writeSpans(cfg config, spans []obs.Span) error {
	path := filepath.Join(cfg.workdir, "trace-"+cfg.workload+"-"+strconv.FormatInt(cfg.seed, 10)+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}

// largeLayers reports solve-large's layers: load, kernel, one recorded
// solve, and the hand-written reference. The server, WAL and generator
// are not on this path.
func largeLayers(rep *report, a *sparse.CSR, b []float64, spec jobspec.Spec, loads, solves []float64) error {
	rep.set("jobspec.load_ms", median(loads), "ms")
	setSpMVLayers(rep, a)
	r, prof, err := runLargeRound(spec, true)
	if err != nil {
		return err
	}
	checkLarge(rep, a, b, r.out, spec.Tol)
	it := float64(r.out.Iterations)
	setSoloLayers(rep, []*soloProfile{prof}, median(solves))
	setRuntimeCounters(rep, prof.st)
	rep.set("core.launches_per_iter", ratio(float64(r.out.Session.Launched), it), "count")
	rep.set("solvers.iterations", it, "count")
	rep.set("solvers.iter_us", ratio(median(solves)*1e6, it), "us")
	rep.set("solvers.restarts_per_job", float64(r.out.Restarts), "count")
	setRefLayers(rep, a, b, spec.Tol, ratio(median(solves), it))
	zeroLayers(rep, "ms", "sparse.auto_pick_ms", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99",
		"serve.run_ms_p50", "serve.job_setup_ms_p50", "serve.http_submit_ms_p50", "gen.late_p99_ms")
	zeroLayers(rep, "share", "serve.coalesced_share", "serve.rejected_share")
	zeroLayers(rep, "count", "serve.batch_size_mean", "wal.records_per_job", "wal.fsyncs_per_job")
	zeroLayers(rep, "B", "wal.bytes_per_job")
	zeroLayers(rep, "us", "wal.append_us_p50", "wal.append_us_p99", "wal.fsync_us_p50", "wal.fsync_us_p99")
	zeroLayers(rep, "kB", "serve.rss_growth_kb_per_job")
	return writeSpans(rep.cfg, prof.spans)
}

// servedLayers reports a served workload's layers from three sources:
// per-job spans built from the client's due/send times and the views'
// server stamps; the /metrics delta m0 → m1 and the run's journal; and
// in-process RunSolve replays of the sampled jobs' specs, labelled solo.
func servedLayers(cfg config, rep *report, jobs []*job, lives []lifetime, samples []int) error {
	var queue, run, setup, http, late, launches, iters, iterUS, restarts []float64
	var spans []obs.Span
	epoch := jobs[0].due
	sec := func(t time.Time) float64 { return t.Sub(epoch).Seconds() }
	for i, j := range jobs {
		if !j.first.IsZero() {
			late = append(late, ms(j.first.Sub(j.due)))
		}
		span := func(name string, from, to time.Time) {
			if !from.IsZero() && !to.IsZero() {
				spans = append(spans, obs.Span{ID: int64(len(spans)), Name: name, Phase: j.id, Worker: i,
					Launch: sec(from), Start: sec(from), End: sec(to)})
			}
		}
		span("gen.wait", j.due, j.sent)
		span("http.submit", j.sent, j.acked)
		v := j.view
		if v == nil || v.Result == nil {
			continue
		}
		span("serve.queue", v.Submitted, v.Started)
		span("serve.run", v.Started, v.Finished)
		span("solve", v.Finished.Add(-v.Result.Elapsed), v.Finished)
		queue = append(queue, ms(v.Started.Sub(v.Submitted)))
		runMS := ms(v.Finished.Sub(v.Started))
		run = append(run, runMS)
		setup = append(setup, runMS-ms(v.Result.Elapsed))
		restarts = append(restarts, float64(v.Result.Restarts))
		if j.waited { // closed loop: the round trip less the server's own time
			http = append(http, ms(j.acked.Sub(j.sent))-ms(v.Finished.Sub(v.Submitted)))
		} else {
			http = append(http, ms(j.acked.Sub(j.sent)))
		}
		if j.class == classOK && v.Result.Iterations > 0 {
			it := float64(v.Result.Iterations)
			iters = append(iters, it)
			launches = append(launches, float64(v.Result.Session.Launched)/it)
			iterUS = append(iterUS, float64(v.Result.Elapsed.Microseconds())/it)
		}
	}
	rep.set("serve.queue_wait_ms_p50", percentile(queue, 50), "ms")
	rep.set("serve.queue_wait_ms_p99", percentile(queue, 99), "ms")
	rep.set("serve.run_ms_p50", percentile(run, 50), "ms")
	rep.set("serve.job_setup_ms_p50", percentile(setup, 50), "ms")
	rep.set("serve.http_submit_ms_p50", percentile(http, 50), "ms")
	rep.set("gen.late_p99_ms", percentile(late, 99), "ms")
	rep.set("core.launches_per_iter", median(launches), "count")
	rep.set("solvers.iterations", median(iters), "count")
	rep.set("solvers.iter_us", median(iterUS), "us")
	rep.set("solvers.restarts_per_job", mean(restarts), "count")
	fmt.Printf("views: %d of %d jobs read back; queue-wait p99 rests on %d samples\n", len(run), len(jobs), len(queue))

	// Server counters, summed over the run's server lifetimes.
	var d serve.MetricsSnapshot
	var dw serve.WALMetricsSnapshot
	var growth, bytes float64
	var sizes []int
	for _, l := range lives {
		m0, m1 := l.m0, l.m1
		d.Submitted += m1.Submitted - m0.Submitted
		d.RejectedFull += m1.RejectedFull - m0.RejectedFull
		d.RejectedDraining += m1.RejectedDraining - m0.RejectedDraining
		d.Completed += m1.Completed - m0.Completed
		d.CoalescedJobs += m1.CoalescedJobs - m0.CoalescedJobs
		d.Batches += m1.Batches - m0.Batches
		if m0.WAL != nil && m1.WAL != nil {
			dw.RecordsAppended += m1.WAL.RecordsAppended - m0.WAL.RecordsAppended
			dw.Fsyncs += m1.WAL.Fsyncs - m0.WAL.Fsyncs
		}
		d.Runtime.Launched += m1.Runtime.Launched - m0.Runtime.Launched
		d.Runtime.AnalysisScans += m1.Runtime.AnalysisScans - m0.Runtime.AnalysisScans
		d.Runtime.TraceHits += m1.Runtime.TraceHits - m0.Runtime.TraceHits
		d.Runtime.TraceMisses += m1.Runtime.TraceMisses - m0.Runtime.TraceMisses
		d.Runtime.TraceFallbacks += m1.Runtime.TraceFallbacks - m0.Runtime.TraceFallbacks
		growth += l.hwm - l.rss0
		bytes += float64(l.walBytes)
		sizes = append(sizes, l.recSizes...)
	}
	done := float64(d.Completed)
	coal, batches := float64(d.CoalescedJobs), float64(d.Batches)
	rep.set("serve.coalesced_share", ratio(coal, done), "share")
	rep.set("serve.batch_size_mean", ratio(done, done-coal+batches), "count")
	rep.set("serve.rejected_share", ratio(float64(d.RejectedFull+d.RejectedDraining), float64(d.Submitted)), "share")
	rep.set("serve.rss_growth_kb_per_job", ratio(growth, done), "kB")
	rep.set("wal.records_per_job", ratio(float64(dw.RecordsAppended), done), "count")
	rep.set("wal.fsyncs_per_job", ratio(float64(dw.Fsyncs), done), "count")
	setRuntimeCounters(rep, d.Runtime)
	if err := setWALLayers(rep, sizes, int64(bytes), filepath.Join(cfg.workdir, "walbench-"+cfg.workload), done); err != nil {
		return err
	}

	// Operator-level layers, on every distinct operator the jobs named.
	var mats []string
	auto := false
	seen := map[string]bool{}
	for _, j := range jobs {
		if !seen[j.spec.Matrix] {
			seen[j.spec.Matrix] = true
			mats = append(mats, j.spec.Matrix)
		}
		auto = auto || j.spec.Format == "auto"
	}
	if err := timeLoad(rep, mats...); err != nil {
		return err
	}
	var largest *sparse.CSR
	var picks []float64
	for _, m := range mats {
		a, err := jobspec.LoadMatrix(m)
		if err != nil {
			return err
		}
		if largest == nil || a.NNZ() > largest.NNZ() {
			largest = a
		}
		if auto {
			t0 := time.Now()
			sparse.AutoSelect(a, jobspec.Default().Pieces)
			picks = append(picks, ms(time.Since(t0)))
		}
	}
	setSpMVLayers(rep, largest)
	rep.set("sparse.auto_pick_ms", mean(picks), "ms")

	// Solo replays of the sampled jobs, recorded and plain.
	var profs []*soloProfile
	var plainS float64
	var refDone bool
	for _, idx := range samples {
		if idx >= len(jobs) {
			continue
		}
		spec := jobs[idx].spec
		a, err := jobspec.LoadMatrix(spec.Matrix)
		if err != nil {
			return err
		}
		// Plain, recorded, recorded, plain: each side sees the same warm-up.
		plain := plainRun(a, spec)
		_, prof := soloRun(a, spec, nil)
		_, prof2 := soloRun(a, spec, nil)
		plain2 := plainRun(a, spec)
		plainS += plain.Elapsed.Seconds() + plain2.Elapsed.Seconds()
		profs = append(profs, prof, prof2)
		if !refDone && spec.Solver == "cg" && plain.Iterations > 0 {
			refDone = true
			rows, _ := sparse.Dims(a)
			setRefLayers(rep, a, spec.BuildRHS(a, int(rows)), spec.Tol, plain.Elapsed.Seconds()/float64(plain.Iterations))
		}
	}
	if !refDone {
		zeroLayers(rep, "ms", "ref.cg_iter_ms")
		zeroLayers(rep, "ratio", "ref.framework_ratio")
	}
	setSoloLayers(rep, profs, plainS)
	return writeSpans(cfg, spans)
}
