package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of timings from one run.
type samples []time.Duration

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// percentile is the nearest-rank percentile p (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it.
// An empty set reads 0.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	rank := int(math.Ceil(p / 100 * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(c) {
		rank = len(c)
	}
	return c[rank-1]
}

func (s samples) median() time.Duration { return s.percentile(50) }

// tailBeyond is how many samples the tail percentile must leave
// above itself.
const tailBeyond = 10

// tail is the highest nearest-rank percentile that still has at least
// tailBeyond samples beyond it, with that percentile. With tailBeyond
// or fewer samples no such percentile exists; the maximum is reported
// with pct 100.
func (s samples) tail() (v time.Duration, pct float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	c := s.sorted()
	if n <= tailBeyond {
		return c[n-1], 100
	}
	rank := n - tailBeyond
	return c[rank-1], 100 * float64(rank) / float64(n)
}

func (s samples) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// medianFloat is the nearest-rank median of plain numbers.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[(len(c)+1)/2-1]
}
