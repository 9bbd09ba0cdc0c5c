// Command perfbench is the repository benchmark. It runs one named
// workload against the solve and serve paths as shipped — mmserve as a
// subprocess, or jobspec.LoadMatrix + serve.RunSolve in process, the
// path mmsolve runs — checks every answer, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics BENCHMARK.json
// lists; with --trace 1 it repeats the workload and reports the
// per-layer metrics instead, measured from outside each layer. See
// README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	mmserve  string // mmserve binary, for the served workloads
	workdir  string // scratch space inside the checkout
	conns    int    // client threads and connections: one per CPU
}

var workloads = map[string]func(config) (*report, error){
	"serve-small":   runServeSmall,
	"solve-large":   runSolveLarge,
	"serve-durable": runServeDurable,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-small, solve-large, or serve-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every job input derives from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	flag.StringVar(&cfg.mmserve, "mmserve", "", "mmserve binary (served workloads)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for WAL, matrix and trace files")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.conns = runtime.NumCPU()

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-small|solve-large|serve-durable --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	want, err := loadMetricList(cfg.trace)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fail(err)
	}
	if cfg.workdir, err = filepath.Abs(cfg.workdir); err != nil {
		fail(err)
	}
	fmt.Println("host:", hostStamp())
	fmt.Printf("workload %s, seed %d, %ds window, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	rep, err := run(cfg)
	if err != nil {
		fail(err)
	}
	out, ok := rep.finish(want)
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadMetricList reads the metric names and units this mode must report
// from BENCHMARK.json in the working directory, the one list the
// benchmark and its checker share.
func loadMetricList(trace bool) ([]metricSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if trace {
		return b.PerLayer, nil
	}
	return b.EndToEnd, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, job outcomes and gate verdicts.
type report struct {
	cfg       config
	metrics   map[string]metric
	tally     tally    // outcomes of every attempt
	attempted int      // jobs
	firstOK   int      // jobs whose first attempt gave a verified answer
	failed    int      // jobs no attempt of which gave a verified answer
	gates     []string // correctness-gate violations
}

func newReport(cfg config) *report {
	return &report{cfg: cfg, metrics: map[string]metric{}, tally: tally{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// record counts one job from the outcomes of its attempts, in order:
// it failed unless its last attempt was verified.
func (r *report) record(tries ...string) {
	r.attempted++
	if len(tries) > 0 && tries[0] == classOK {
		r.firstOK++
	}
	for _, c := range tries {
		r.tally[c]++
	}
	if len(tries) == 0 || tries[len(tries)-1] != classOK {
		r.failed++
	}
}

// gate records a correctness-gate violation: unlike a counted job
// failure, it fails the run.
func (r *report) gate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Println("GATE VIOLATION:", msg)
	r.gates = append(r.gates, msg)
}

// latency reports the median of first — for served jobs, those verified
// at their first attempt — and, as latency.tail_ms, the first tail
// percentile of samples (candidates in descending order) that leaves at
// least minBeyond samples beyond it, and says how many samples each rests
// on. The tail is where resent jobs land.
func (r *report) latency(first, samples []float64, candidates ...float64) {
	p, ok := tailPercentile(len(samples), candidates...)
	p50, tail := percentile(first, 50), percentile(samples, p)
	r.set("latency_p50_ms", p50, "ms")
	r.set("latency.tail_ms", tail, "ms")
	fmt.Printf("latency: p50 %.3f ms over %d samples, p%g %.3f ms over %d samples\n", p50, len(first), p, tail, len(samples))
	if !ok {
		fmt.Printf("WARNING: %d samples leave fewer than %d beyond p%g\n", len(samples), minBeyond, p)
	}
}

// finish prints the human-readable summary and returns the result
// object holding exactly the metrics want names.
func (r *report) finish(want []metricSpec) (map[string]any, bool) {
	tries, failedTries := r.tally.total(), r.tally.failed()
	r.set("ok_share", ratio(float64(r.firstOK), float64(r.attempted)), "share")
	r.set("jobs.fail_share", ratio(float64(failedTries), float64(tries)), "share")
	for _, c := range failClasses {
		r.set("jobs.fail_"+c, float64(r.tally[c]), "count")
	}
	fmt.Printf("jobs: %d attempted, %d with no verified answer; attempts: %d, %d failed (fail_share %.4f); failed attempts by class: %s\n",
		r.attempted, r.failed, tries, failedTries, ratio(float64(failedTries), float64(tries)), r.tally)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out := map[string]metric{}
	ok := len(r.gates) == 0 && r.attempted > 0
	for _, w := range want {
		m, have := r.metrics[w.Name]
		if !have || !finite(m.Value) {
			r.gate("metric %s not measured", w.Name)
			ok = false
			continue
		}
		if m.Unit != w.Unit {
			r.gate("metric %s in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
			ok = false
		}
		out[w.Name] = m
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{
		"correct":   ok,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	}, ok
}

// hostStamp describes the machine a result was measured on.
func hostStamp() string {
	cpu, llc := "unknown", "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	// The last-level cache is the highest-numbered cache index cpu0 lists.
	if idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size"); len(idx) > 0 {
		sort.Strings(idx)
		if data, err := os.ReadFile(idx[len(idx)-1]); err == nil {
			llc = strings.TrimSpace(string(data))
		}
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d go=%s cpu=%q llc=%s time=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, llc,
		time.Now().UTC().Format(time.RFC3339))
}

// removeAll deletes a run's scratch directory.
func removeAll(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("remove %s: %w", dir, err)
	}
	return nil
}
