package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/wal"
)

// coldStarts is how many extra times a served run starts and stops
// mmserve before its load, to price set-up; every server lifetime of
// the load adds one more sample, and setup_s is the median.
const coldStarts = 15

// lifetime is what one mmserve process showed between its first
// /healthz 200 and its drain.
type lifetime struct {
	m0, m1    serve.MetricsSnapshot // GET /metrics after start and before drain
	rss0, hwm float64               // VmRSS after start, VmHWM before drain (kB)
	rss       *rssSampler           // VmRSS through the load
	rssMean   float64               // mean of rss's samples (kB)
	walBytes  int64                 // journal size after drain
	recSizes  []int                 // journal record sizes (traced runs only)
}

// servedRun starts, loads and drains mmserve processes for one run. The
// seed's server keeps memory for every job it serves, so a workload may
// spread its window over consecutive server lifetimes to bound each
// process's peak; the per-job growth is reported as
// serve.rss_growth_kb_per_job.
type servedRun struct {
	cfg    config
	client *http.Client
	setups []float64
	lives  []lifetime
	starts int
}

// newServedRun starts and drains coldStarts idle servers before any
// load, for the set-up samples.
func newServedRun(cfg config) (*servedRun, error) {
	r := &servedRun{cfg: cfg, client: newClient(cfg.conns)}
	for i := 0; i < coldStarts; i++ {
		if err := r.coldStart(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// start execs mmserve on a fresh WAL directory and records its set-up
// time and starting counters.
func (r *servedRun) start() (*server, error) {
	dir := filepath.Join(r.cfg.workdir, "wal-"+r.cfg.workload+"-"+strconv.FormatInt(r.cfg.seed, 10)+"-"+strconv.Itoa(r.starts))
	r.starts++
	if err := removeAll(dir); err != nil {
		return nil, err
	}
	srv, d, err := startServer(r.cfg.mmserve, dir, r.client)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, d.Seconds())
	return srv, nil
}

// coldStart starts and drains an idle server, for the set-up samples.
func (r *servedRun) coldStart() error {
	srv, err := r.start()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	return removeAll(srv.walDir)
}

// load splits window into equal lifetimes no longer than lifetime and
// runs fn against a fresh server for each, with the lifetime's length.
func (r *servedRun) load(window, lifetime time.Duration, fn func(base string, d time.Duration)) error {
	n := (window + lifetime - 1) / lifetime
	for k := time.Duration(0); k < n; k++ {
		lo, hi := window*k/n, window*(k+1)/n
		srv, err := r.start()
		if err != nil {
			return err
		}
		life, err := r.begin(srv)
		if err == nil {
			fn(srv.base, hi-lo)
			err = r.end(srv, life)
		}
		if err != nil {
			srv.kill()
			return err
		}
	}
	return nil
}

// begin reads a freshly started server's baseline counters.
func (r *servedRun) begin(srv *server) (lifetime, error) {
	var l lifetime
	var err error
	l.rss0, err = procStatusKB(srv.cmd.Process.Pid, "VmRSS")
	if err != nil {
		return l, err
	}
	if l.m0, err = srv.metrics(r.client); err != nil {
		return l, err
	}
	l.rss = sampleRSS(srv.cmd.Process.Pid)
	return l, nil
}

// end reads the server's final counters and peak RSS, drains it, sizes
// its journal (and, in traced runs, reads back its record sizes), and
// deletes the journal.
func (r *servedRun) end(srv *server, l lifetime) error {
	var err error
	l.rssMean = mean(l.rss.end())
	if l.m1, err = srv.metrics(r.client); err != nil {
		return err
	}
	if l.hwm, err = procStatusKB(srv.cmd.Process.Pid, "VmHWM"); err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if l.walBytes, err = dirBytes(srv.walDir); err != nil {
		return err
	}
	if r.cfg.trace {
		if l.recSizes, err = recordSizes(srv.walDir); err != nil {
			return err
		}
	}
	r.lives = append(r.lives, l)
	return removeAll(srv.walDir)
}

// report sets setup_s, proc.rss_mb (the median over the run's server
// lifetimes of each one's mean VmRSS through its load) and
// proc.peak_rss_mb (the highest VmHWM).
func (r *servedRun) report(rep *report) {
	rep.set("setup_s", median(r.setups), "s")
	var peak float64
	var means []float64
	for _, l := range r.lives {
		peak = max(peak, l.hwm)
		means = append(means, l.rssMean/1024)
	}
	rep.set("proc.rss_mb", median(means), "MB")
	rep.set("proc.peak_rss_mb", peak/1024, "MB")
	fmt.Printf("setup: mmserve exec to first /healthz 200, median %.4f s of %d starts\n", median(r.setups), len(r.setups))
	fmt.Printf("memory: mmserve mean VmRSS per lifetime %.1f MB, highest VmHWM %.1f MB\n", means, peak/1024)
}

// recordSizes replays a drained server's journal and returns its record
// payload sizes in journal order.
func recordSizes(dir string) ([]int, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	var sizes []int
	err = l.Replay(func(p []byte) error {
		sizes = append(sizes, len(p))
		return nil
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("replay run journal: %w", err)
	}
	return sizes, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// typicalSolve is the geometric mean, over the kinds of job (operator
// and solver) with verified results, of each kind's median
// server-reported solve time. Every kind weighs the same however the
// run's mix came out; a plain median over the mixture sits on the edge
// of one kind's cluster and jumps between kinds from seed to seed.
func typicalSolve(jobs []*job) float64 {
	byKind := map[string][]float64{}
	for _, j := range jobs {
		if j.class == classOK {
			k := j.spec.Matrix + " " + j.spec.Solver
			byKind[k] = append(byKind[k], j.view.Result.Elapsed.Seconds())
		}
	}
	if len(byKind) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, xs := range byKind {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(byKind)))
}
