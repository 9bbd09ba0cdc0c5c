package main

import (
	"math/rand"
	"sort"
	"time"
)

// arrivalSchedule returns the send offsets of an open-loop generator:
// exactly round(rate·window) arrivals, drawn i.i.d. uniform over the
// window and sorted. That is a Poisson process conditioned on its count,
// so every seed offers the same load while the gaps stay exponential.
func arrivalSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	n := int(rate*window.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// solverMix assigns a method to each of n jobs: every block of four has
// three "cg" and one "bicgstab" at a seeded position, so the ¾/¼ mix is
// exact in every window and only the order depends on the seed.
func solverMix(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]string, n)
	for b := 0; b < n; b += 4 {
		odd := b + rng.Intn(4)
		for i := b; i < b+4 && i < n; i++ {
			out[i] = "cg"
			if i == odd {
				out[i] = "bicgstab"
			}
		}
	}
	return out
}
