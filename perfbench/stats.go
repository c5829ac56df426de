package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail value backed by fewer is one or two outliers, not a percentile.
const minBeyond = 10

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// quantile is one reported percentile of a latency sample.
type quantile struct {
	Pct   float64 // the percentile actually reported, e.g. 99
	Value float64
	N     int // sample count it was taken from
}

// nearestRank returns the pct-th percentile of sorted by the nearest-rank
// rule (the smallest sample with at least pct% of the samples at or below
// it). sorted must be non-empty and ascending.
func nearestRank(sorted []float64, pct float64) float64 {
	return sorted[min(max(rank(len(sorted), pct), 1), len(sorted))-1]
}

// rank is the 1-based nearest rank of the pct-th percentile of n samples.
// The epsilon keeps float error (99.9% of 10000 is 9990.000000000002) from
// pushing an exact rank up by one.
func rank(n int, pct float64) int {
	return int(math.Ceil(pct*float64(n)/100 - 1e-9))
}

// beyond counts the samples strictly past the nearest-rank pct-th
// percentile of n samples.
func beyond(n int, pct float64) int { return n - rank(n, pct) }

// median is the nearest-rank 50th percentile of samples (any order).
func median(samples []float64) quantile {
	if len(samples) == 0 {
		return quantile{Pct: 50}
	}
	s := sortedCopy(samples)
	return quantile{Pct: 50, Value: nearestRank(s, 50), N: len(s)}
}

// tail reports the highest percentile of samples, at most want, that has at
// least minBeyond samples beyond it, with the sample count. With too few
// samples for even the median it reports the median anyway (Pct 50), so the
// caller always gets a value and can see from N how little backs it.
func tail(samples []float64, want float64) quantile {
	if len(samples) == 0 {
		return quantile{Pct: want}
	}
	s := sortedCopy(samples)
	for _, p := range tailPercentiles {
		if p > want {
			continue
		}
		if beyond(len(s), p) >= minBeyond {
			return quantile{Pct: p, Value: nearestRank(s, p), N: len(s)}
		}
	}
	return quantile{Pct: 50, Value: nearestRank(s, 50), N: len(s)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// growingBacklog reports whether a rung's backlog samples (requests due but
// not yet completed, taken at a fixed cadence) trend upwards: the mean of the
// last third exceeds the mean of the first third by more than slack. A
// server keeping up holds a flat backlog (rate × latency, by Little's law);
// one past capacity accumulates the excess for the whole rung.
func growingBacklog(samples []int, slack float64) bool {
	if len(samples) < 3 {
		return false
	}
	third := len(samples) / 3
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(samples[len(samples)-third:])-mean(samples[:third]) > slack
}

// rung is the outcome of one step of the max_rps ladder.
type rung struct {
	Rate      float64 // offered requests per second
	Served    float64 // requests answered within the limit, per second from the first due time to the last response
	Tail      quantile
	Failed    int
	Backlog   bool // the backlog grew during the rung
	LimitMS   float64
	Attempted int
}

// passed reports whether the rung met the workload's latency limit at its
// tail percentile (failed requests count as missing it) without a growing
// backlog.
func (r rung) passed() bool {
	return r.Attempted > 0 && !r.Backlog && r.Tail.Value <= r.LimitMS
}

// climbDone reports whether the last two rungs both failed: the ladder
// stops there.
func climbDone(rungs []rung) bool {
	n := len(rungs)
	return n >= 2 && !rungs[n-1].passed() && !rungs[n-2].passed()
}

// maxRPS picks the ladder result: the served rate of the highest rung that
// passed, and its index. Zero and -1 when none did.
func maxRPS(rungs []rung) (float64, int) {
	best, idx := 0.0, -1
	for i, r := range rungs {
		if r.passed() {
			best, idx = r.Served, i
		}
	}
	return best, idx
}
