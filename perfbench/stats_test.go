package main

import (
	"math"
	"testing"
	"time"

	"kdrsolvers/internal/jobspec"
	"kdrsolvers/internal/serve"
)

func TestRankNearest(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1, 50, 1}, {2, 50, 1}, {10, 90, 9}, {100, 99, 99}, {1000, 99, 990}, {5, 0, 1}, {5, 100, 5},
	} {
		if got := rank(c.n, c.p); got != c.want {
			t.Errorf("rank(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// The sample-count rule: a percentile is reported only when at least
// ten samples lie beyond it.
func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {100, 90, true}, {99, 90, false},
		{20, 50, true}, {19, 50, false}, {0, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestTailPercentilePicksHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{1000, 99, true}, {500, 90, true}, {100, 90, true}, {30, 75, false},
	} {
		p, ok := tailPercentile(c.n, 99, 90, 75)
		if p != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = p%g %v, want p%g %v", c.n, p, ok, c.want, c.wantOK)
		}
	}
	if p, ok := tailPercentile(40, 99, 90, 75); p != 75 || !ok {
		t.Errorf("tailPercentile(40) = p%g %v, want p75 true", p, ok)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}

func TestTypicalSolve(t *testing.T) {
	done := func(matrix, solver string, sec float64, class string) *job {
		return &job{spec: jobspec.Spec{Matrix: matrix, Solver: solver}, class: class,
			view: &serve.JobView{Result: &serve.JobResult{Elapsed: time.Duration(sec * float64(time.Second))}}}
	}
	jobs := []*job{
		done("a", "cg", 1, classOK), done("a", "cg", 1, classOK), done("a", "cg", 9, classNaN),
		done("a", "bicgstab", 4, classOK), done("a", "bicgstab", 3, classOK), done("a", "bicgstab", 5, classOK),
	}
	// Medians 1 s (failed job left out) and 4 s, each kind weighed once.
	if got := typicalSolve(jobs); math.Abs(got-2) > 1e-12 {
		t.Errorf("typicalSolve = %g, want 2", got)
	}
	if got := typicalSolve(jobs[2:3]); !math.IsNaN(got) {
		t.Errorf("no verified job: got %g, want NaN", got)
	}
}

func TestSoloSolve(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	done := func(sec float64, class string, ran ...[2]time.Time) *job {
		return &job{class: class, ran: ran,
			view: &serve.JobView{Result: &serve.JobResult{Elapsed: time.Duration(sec * float64(time.Second))}}}
	}
	jobs := []*job{
		done(1, classOK, [2]time.Time{at(0), at(10)}),
		// Its failed first attempt overlaps the next job's only run.
		done(2, classOK, [2]time.Time{at(20), at(40)}, [2]time.Time{at(50), at(60)}),
		done(9, classOK, [2]time.Time{at(30), at(45)}),
		done(3, classOK, [2]time.Time{at(60), at(70)}), // touches, does not overlap
		done(8, classNaN, [2]time.Time{at(80), at(90)}),
	}
	// Alone: 1, 2 (its last attempt) and 3 s; the 9-s job overlapped.
	if got := soloSolve(jobs); got != 2 {
		t.Errorf("soloSolve = %g, want 2", got)
	}
}
