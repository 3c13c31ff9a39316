package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of vs by linear
// interpolation between closest ranks; 0 for an empty sample. vs is
// not modified.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// fasterHalf is how a run's reps become one reported time: the mean of
// the faster half of them. What disturbs a rep on a shared host — a
// neighbour on the processor, a stalled disk — only ever makes it
// slower, and comes in bursts that can cover a third of a run; a
// median sits at the edge of such a burst and a mean inside it, while
// the faster half stays clear of it and still averages half the reps.
func fasterHalf(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	s = s[:(len(s)+1)/2]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// medianOfReps applies stat to every rep's sample and returns the
// median of the per-rep statistics, so one disturbed rep cannot move
// the reported value. Empty reps are skipped.
func medianOfReps(reps [][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, r := range reps {
		if len(r) > 0 {
			per = append(per, stat(r))
		}
	}
	return median(per)
}

func p95(vs []float64) float64 { return percentile(vs, 0.95) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
