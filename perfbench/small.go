package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/serve"
)

// serve-small: an open loop of independent users submitting Poisson
// arrivals of lap2d:32x32 solves to mmserve. Launch-bound and
// operator-shared: every job names the same operator, so the server may
// coalesce them, and the kernels do almost nothing.
const (
	smallRate   = 5.0 // offered jobs per second
	smallMatrix = "lap2d:32x32"
	smallTol    = 1e-8
	// viewPoll is how often outstanding jobs' views are polled: far
	// inside the registry's retention (256 completed jobs, about 50
	// seconds at smallRate).
	viewPoll = 100 * time.Millisecond
	// drainWait bounds how long the run waits for jobs still
	// outstanding when its arrivals end.
	drainWait = 60 * time.Second
)

// job is one user's request and everything observed about it. A job
// whose answer fails verification, or that the server turns away, is
// sent again, as a user of the service would, up to maxAttempts times;
// every attempt's outcome is counted, and the job fails only when no
// attempt gave a verified answer. For a closed-loop client, due is the
// moment the client first sent it.
type job struct {
	due, first, sent, acked time.Time    // due; first and latest send; latest reply
	spec                    jobspec.Spec // sent as the POST /solve body
	id                      string
	view                    *serve.JobView
	class                   string         // outcome of the latest attempt
	tries                   []string       // outcome of every attempt, in order
	ran                     [][2]time.Time // server start and finish of every attempt that ran
	waited                  bool           // sent with ?wait=1, so the reply is the result
}

// maxAttempts is how often a job is sent before it counts as failed.
// The seed's tracing defect spoils one served attempt in four or five at
// random, and about half the resends of a spoiled job, since failures
// come in bursts of overlapping sessions; thirty attempts make a job
// that never verifies a sign of something else.
const maxAttempts = 30

// settle records the outcome of j's latest attempt and reports whether
// j is to be sent again: the attempt failed and j has attempts left.
func (j *job) settle(class string) bool {
	j.class = class
	j.tries = append(j.tries, class)
	return class != classOK && len(j.tries) < maxAttempts
}

// post sends j once, with the given query, and returns the HTTP status
// and the server's view of it.
func (j *job) post(client *http.Client, base, query string) (int, serve.JobView, error) {
	body, _ := json.Marshal(j.spec)
	j.sent = time.Now()
	if j.first.IsZero() {
		j.first = j.sent
	}
	var v serve.JobView
	st, err := doJSON(client, http.MethodPost, base+"/solve"+query, body, &v)
	j.acked = time.Now()
	return st, v, err
}

func runServeSmall(cfg config) (*report, error) {
	rep := newReport(cfg)
	run, err := newServedRun(cfg)
	if err != nil {
		return nil, err
	}

	window := time.Duration(cfg.seconds) * time.Second
	sched := arrivalSchedule(cfg.seed, smallRate, window)
	solversFor := solverMix(cfg.seed, len(sched))
	jobs := make([]*job, len(sched))
	for i := range jobs {
		spec := jobspec.Default()
		spec.Matrix, spec.Solver, spec.Tol = smallMatrix, solversFor[i], smallTol
		spec.RHS = "rand:" + strconv.FormatInt(cfg.seed*100003+int64(i), 10)
		jobs[i] = &job{spec: spec}
	}
	// One server lifetime takes the whole window.
	var start time.Time
	err = run.load(window, window, func(base string, _ time.Duration) {
		start = openLoop(cfg, run.client, base, jobs, sched)
	})
	if err != nil {
		return nil, err
	}
	run.report(rep)

	// End-to-end: latency from when each job was due to the server's
	// finish stamp of its verified attempt.
	var lat, first []float64
	for _, j := range jobs {
		rep.record(j.tries...)
		if j.class == classOK {
			lat = append(lat, ms(j.view.Finished.Sub(j.due)))
			if len(j.tries) == 1 {
				first = append(first, lat[len(lat)-1])
			}
		}
	}
	fmt.Printf("serve-small: offered %.0f jobs/s of %s (3/4 cg, 1/4 bicgstab, tol %g) for %ds, %d jobs\n",
		smallRate, smallMatrix, smallTol, cfg.seconds, len(jobs))
	rep.latency(first, lat, 99, 90)
	rep.set("solve_s", soloSolve(jobs), "s")
	rep.set("throughput_jobs_s", ratio(float64(len(lat)), windowEnd(jobs).Sub(start).Seconds()), "jobs/s")

	if cfg.trace {
		if err := servedLayers(cfg, rep, jobs, run.lives, []int{0, 1, 2, 3}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// openLoop sends each job at its offset from the returned start time
// over cfg.conns connections and polls the views of accepted jobs,
// resending a job whose attempt failed, until every job is settled or
// drainWait has passed since the last arrival.
func openLoop(cfg config, client *http.Client, base string, jobs []*job, offs []time.Duration) time.Time {
	// One scheduler hands due jobs to cfg.conns senders; the poller reads
	// back views over the same connection pool. The send queue holds
	// every job at most once, so it is sized to the schedule.
	start := time.Now().Add(20 * time.Millisecond)
	sendq := make(chan *job, len(jobs))
	var pmu sync.Mutex
	var pending []*job
	var senders sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for j := range sendq {
				if submit(client, base, j) {
					pmu.Lock()
					pending = append(pending, j)
					pmu.Unlock()
				}
			}
		}()
	}
	sendersDone := make(chan struct{})
	go func() {
		for i, j := range jobs {
			j.due = start.Add(offs[i])
			time.Sleep(time.Until(j.due))
			sendq <- j
		}
		close(sendq)
		senders.Wait()
		close(sendersDone)
	}()

	var deadline time.Time
	for {
		time.Sleep(viewPoll)
		pmu.Lock()
		batch := pending
		pending = nil
		pmu.Unlock()
		var keep []*job
		for _, j := range batch {
			// A finished attempt that failed is sent again at once.
			if c := pollView(client, base, j); c == "" || j.settle(c) && submit(client, base, j) {
				keep = append(keep, j)
			}
		}
		pmu.Lock()
		pending = append(keep, pending...)
		left := len(pending)
		pmu.Unlock()
		select {
		case <-sendersDone:
			if deadline.IsZero() {
				deadline = time.Now().Add(drainWait)
			}
		default:
			continue
		}
		if left == 0 {
			return start
		}
		if time.Now().After(deadline) {
			for _, j := range pending {
				j.settle(classLostView) // never finished within drainWait
			}
			return start
		}
	}
}

// submit sends j until the server accepts it or j runs out of
// attempts, and reports whether it was accepted.
func submit(client *http.Client, base string, j *job) bool {
	for {
		st, v, err := j.post(client, base, "")
		if err == nil && st == http.StatusAccepted {
			j.id, j.view = v.ID, nil
			return true
		}
		if !j.settle(classifyStatus(st, err)) {
			return false
		}
	}
}

// pollView reads the view of j's outstanding attempt. It returns the
// attempt's outcome class once it is settled (done, evicted, or
// unreadable), and "" while it is still queued or running.
func pollView(client *http.Client, base string, j *job) string {
	var v serve.JobView
	st, err := doJSON(client, http.MethodGet, base+"/jobs/"+j.id, nil, &v)
	switch {
	case errors.Is(err, errUndecodable):
		return classNaN
	case err != nil || st != http.StatusOK:
		return classifyStatus(st, err)
	case v.State != "done":
		return ""
	}
	j.view = &v
	j.ran = append(j.ran, [2]time.Time{v.Started, v.Finished})
	return classifyResult(v.Result, j.spec.Tol)
}

// soloSolve is the median server-reported solve time of the verified
// jobs whose last attempt ran while no other attempt was running: the
// served path's own cost for one small job. Contention for the workers
// shows in the latency instead; leaving it out here keeps the share of
// jobs that overlapped, which varies from run to run, out of this one.
func soloSolve(jobs []*job) float64 {
	var all [][2]time.Time
	for _, j := range jobs {
		all = append(all, j.ran...)
	}
	var xs []float64
	for _, j := range jobs {
		if j.class != classOK {
			continue
		}
		last, overlaps := j.ran[len(j.ran)-1], 0
		for _, r := range all {
			if r[0].Before(last[1]) && last[0].Before(r[1]) {
				overlaps++ // counts last itself once
			}
		}
		if overlaps == 1 {
			xs = append(xs, j.view.Result.Elapsed.Seconds())
		}
	}
	return median(xs)
}

// windowEnd is the later of the last due time and the last finish
// stamp among jobs.
func windowEnd(jobs []*job) time.Time {
	var end time.Time
	for _, j := range jobs {
		if j.due.After(end) {
			end = j.due
		}
		if j.view != nil && j.view.Finished.After(end) {
			end = j.view.Finished
		}
	}
	return end
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
