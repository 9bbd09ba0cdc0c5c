package main

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"kdrsolvers/internal/serve"
)

func result(res, trueRes float64, converged bool, breakdown, err string) *serve.JobResult {
	return &serve.JobResult{Residual: res, TrueResidual: trueRes, Converged: converged, Breakdown: breakdown, Err: err}
}

func TestClassifyResult(t *testing.T) {
	const tol = 1e-8
	for _, c := range []struct {
		name string
		r    *serve.JobResult
		want string
	}{
		{"verified", result(9e-9, 1.04e-8, true, "", ""), classOK},
		{"true residual above slack", result(9e-9, 1.06e-8, true, "", ""), classResidual},
		{"nan residual", result(math.NaN(), 1, false, "", ""), classNaN},
		{"inf true residual", result(1e-9, math.Inf(1), true, "", ""), classNaN},
		{"breakdown", result(1e-3, 1e-3, false, "bicgstab: rho = 0", ""), classBreakdown},
		{"session error", result(1e-3, 1e-3, false, "", "task failed"), classError},
		{"not converged", result(1e-3, 1e-3, false, "", ""), classNotConverged},
		{"missing result", nil, classLostView},
	} {
		if got := classifyResult(c.r, tol); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClassifyStatus(t *testing.T) {
	for _, c := range []struct {
		status int
		err    error
		want   string
	}{
		{503, nil, classRejected},
		{404, nil, classLostView},
		{400, nil, classClientError},
		{0, errors.New("connection refused"), classTransport},
		{500, nil, classTransport},
	} {
		if got := classifyStatus(c.status, c.err); got != c.want {
			t.Errorf("status %d err %v: got %s, want %s", c.status, c.err, got, c.want)
		}
	}
}

// A job view as the server writes it round-trips into the benchmark's
// checks: timestamps, elapsed time and the session's launch count.
func TestJobViewDecodes(t *testing.T) {
	body := `{"id":"job-7","state":"done","submitted":"2026-01-02T03:04:05.000000001Z",
	"started":"2026-01-02T03:04:05.5Z","finished":"2026-01-02T03:04:06Z",
	"result":{"solver":"cg","iterations":42,"residual":5e-9,"true_residual":6e-9,"converged":true,
	"coalesced":3,"elapsed_ns":2500000,"session_stats":{"Launched":900}}}`
	var v serve.JobView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	r := v.Result
	if v.ID != "job-7" || r.Iterations != 42 || r.Elapsed != 2500*time.Microsecond || r.Session.Launched != 900 {
		t.Errorf("decoded %+v / %+v", v, *r)
	}
	if got := classifyResult(r, 1e-8); got != classOK {
		t.Errorf("class %s, want ok", got)
	}
	if v.Finished.Sub(v.Submitted).Seconds() < 0.99 {
		t.Errorf("timestamps decoded wrong: %v .. %v", v.Submitted, v.Finished)
	}
}

func TestTally(t *testing.T) {
	tl := tally{classOK: 7, classNaN: 2, classRejected: 1}
	if tl.failed() != 3 {
		t.Errorf("failed = %d, want 3", tl.failed())
	}
	if got := tl.String(); got != "nan=2 rejected_503=1" {
		t.Errorf("String = %q", got)
	}
	if got := (tally{classOK: 3}).String(); got != "none" {
		t.Errorf("String = %q, want none", got)
	}
}

func TestRetriesAndRecord(t *testing.T) {
	j := &job{}
	if !j.settle(classNaN) || !j.settle(classResidual) || j.settle(classOK) {
		t.Fatal("a failed attempt with attempts left must be resent, a verified one not")
	}
	k := &job{}
	for k.settle(classBreakdown) {
	}
	if len(k.tries) != maxAttempts {
		t.Fatalf("a job that never verifies is sent %d times, want %d", len(k.tries), maxAttempts)
	}
	rep := newReport(config{})
	rep.record(j.tries...)
	rep.record(k.tries...)
	rep.record(classOK)
	if rep.attempted != 3 || rep.firstOK != 1 || rep.failed != 1 {
		t.Errorf("jobs: %d attempted, %d verified at once, %d failed; want 3, 1 and 1", rep.attempted, rep.firstOK, rep.failed)
	}
	if rep.tally.total() != 3+maxAttempts+1 || rep.tally.failed() != 2+maxAttempts {
		t.Errorf("attempts: %d, %d failed", rep.tally.total(), rep.tally.failed())
	}
}
