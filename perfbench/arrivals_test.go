package main

import (
	"math"
	"testing"
	"time"
)

func TestArrivalScheduleIsSeeded(t *testing.T) {
	a := arrivalSchedule(7, 20, 10*time.Second)
	b := arrivalSchedule(7, 20, 10*time.Second)
	c := arrivalSchedule(8, 20, 10*time.Second)
	if len(a) != 200 || len(c) != 200 {
		t.Fatalf("counts %d, %d; want exactly rate·window = 200", len(a), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

func TestArrivalScheduleIsPoissonLike(t *testing.T) {
	const rate = 20.0
	window := 500 * time.Second
	s := arrivalSchedule(1, rate, window)
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("schedule not sorted")
		}
	}
	if s[0] < 0 || s[len(s)-1] >= window {
		t.Fatal("arrival outside the window")
	}
	// Exponential gaps: mean 1/rate and coefficient of variation 1.
	var sum, sq float64
	for i := 1; i < len(s); i++ {
		g := (s[i] - s[i-1]).Seconds()
		sum += g
		sq += g * g
	}
	n := float64(len(s) - 1)
	m := sum / n
	cv := math.Sqrt(sq/n-m*m) / m
	if math.Abs(m*rate-1) > 0.05 || math.Abs(cv-1) > 0.08 {
		t.Errorf("gap mean %.4fs (want %.4f), CV %.3f (want 1)", m, 1/rate, cv)
	}
}

func TestSolverMix(t *testing.T) {
	mix := solverMix(3, 400)
	n := map[string]int{}
	for b := 0; b < len(mix); b += 4 {
		block := map[string]int{}
		for _, s := range mix[b : b+4] {
			block[s]++
			n[s]++
		}
		if block["cg"] != 3 || block["bicgstab"] != 1 {
			t.Fatalf("block %d: %v", b/4, block)
		}
	}
	if n["cg"] != 300 || n["bicgstab"] != 100 {
		t.Errorf("mix %v, want 300 cg / 100 bicgstab", n)
	}
	again := solverMix(3, 400)
	for i := range mix {
		if mix[i] != again[i] {
			t.Fatal("same seed, different mix")
		}
	}
}

func TestDurableJobsCycleCatalog(t *testing.T) {
	paths := []string{"a.mtx", "b.mtx", "c.mtx", "d.mtx"}
	seen := map[string]bool{}
	solvers := map[string]bool{}
	for i := 0; i < len(durablePairs); i++ {
		j := durableJob(5, paths, i)
		seen[j.Matrix+"|"+j.Solver] = true
		solvers[j.Solver] = true
		if j.Format != "auto" || j.CheckpointEvery == 0 || j.MaxIter == 0 {
			t.Fatalf("job %d: %+v", i, j)
		}
	}
	if len(seen) != len(durablePairs) || len(solvers) != len(durableSolvers) {
		t.Errorf("one cycle covers %d pairs and %d solvers", len(seen), len(solvers))
	}
	if j := durableJob(5, paths, len(durablePairs)); j.Matrix != "a.mtx" || j.Solver != durableSolvers[0] {
		t.Errorf("the cycle does not wrap: %+v", j)
	}
	if durableJob(5, paths, 3).RHS == durableJob(6, paths, 3).RHS {
		t.Error("right-hand side does not depend on the seed")
	}
}
