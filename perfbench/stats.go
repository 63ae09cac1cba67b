package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// Summary describes one latency sample set in milliseconds.
type Summary struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50_ms"`
	Tail      float64 `json:"tail_ms"`
	TailLevel float64 `json:"tail_pct"`
	Max       float64 `json:"max_ms"`
}

// tailLevel returns the highest of tailLevels that leaves at least
// minBeyond of n samples above it, and false when n is too small for
// even the median.
func tailLevel(n int) (float64, bool) {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile p (0 < p <= 100) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize reports the median and the highest percentile with at least
// minBeyond samples beyond it. It fails when there are too few samples
// for a median, so a metric is never printed from a handful of values.
func summarize(ms []float64) (Summary, error) {
	level, ok := tailLevel(len(ms))
	if !ok {
		return Summary{}, fmt.Errorf("%d latency samples: need at least %d for a median", len(ms), 2*minBeyond)
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return Summary{
		N: len(s), P50: percentile(s, 50), Tail: percentile(s, level), TailLevel: level, Max: s[len(s)-1],
	}, nil
}

// tailWindow is the sample count of one window of windowedTail: enough
// for a p90 with ten samples beyond it.
const tailWindow = 100

// windowedTail splits time-ordered latencies into consecutive windows of
// at least tailWindow samples (one window when there are fewer) and
// returns the median of the windows' tails, so one stalled second moves
// the metric by one window, not by the whole run.
func windowedTail(ms []float64) (float64, error) {
	n := max(1, len(ms)/tailWindow)
	var tails []float64
	for w := 0; w < n; w++ {
		s, err := summarize(ms[w*len(ms)/n : (w+1)*len(ms)/n])
		if err != nil {
			return 0, err
		}
		tails = append(tails, s.Tail)
	}
	return median(tails), nil
}

// median of xs (the mean of the middle two for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread bound is checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	// Same integer arithmetic as CPython: position i*(n+1)/4, clamped to
	// 1..n-1, interpolated (or, at the clamp, extrapolated) linearly.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// span is one timed call recorded by the traced run.
type span struct {
	name       string
	start, end time.Duration // since the trace origin
	parent     int           // index of the parent span, -1 for a root
	req        int           // request (query) id
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, c := range kids[i] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi time.Duration
		open := false
		for _, iv := range ivs {
			if open && iv[0] <= curHi {
				if iv[1] > curHi {
					curHi = iv[1]
				}
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// layerSumRatio is the sum of the in-process layer times over the
// measured query time; near 1 means the layers account for the query.
func layerSumRatio(query float64, layers ...float64) float64 {
	var sum float64
	for _, l := range layers {
		sum += l
	}
	return sum / query
}

// recallAt is |got ∩ truth| / len(truth).
func recallAt(got []int, truth []int32) float64 {
	if len(truth) == 0 {
		return 0
	}
	set := make(map[int32]struct{}, len(truth))
	for _, t := range truth {
		set[t] = struct{}{}
	}
	hit := 0
	for _, g := range got {
		if _, ok := set[int32(g)]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
