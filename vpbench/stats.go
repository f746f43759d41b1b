package main

import (
	"math"
	"sort"
	"time"
)

// Timing summarizes one timed quantity the way the report prints it:
// the median, the highest ladder percentile that still has at least ten
// samples beyond it, and the sample count.
type Timing struct {
	N      int
	Median float64
	// TailP is the percentile (e.g. 99 for p99) of Tail; 0 when fewer
	// than ten samples lie beyond even the median.
	TailP float64
	Tail  float64
}

// tailLadder is the set of percentiles the report may quote as a tail.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// percentile returns the nearest-rank p-th percentile of sorted (p in
// 0..100]: the smallest sample with at least p% of samples at or below
// it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := nearestRank(n, p)
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie strictly past the
// nearest-rank p-th percentile's position.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// nearestRank is ceil(p% of n), at least 1. The small epsilon keeps
// float error from pushing an exact product (99.9% of 10000) up a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it among n samples, or 0 when none qualifies.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// summarize sorts a copy of xs and returns its Timing.
func summarize(xs []float64) Timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := Timing{N: len(s), Median: median(s)}
	if p := tailPercentile(len(s)); p > 0 {
		t.TailP, t.Tail = p, percentile(s, p)
	}
	return t
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN when empty. xs need not be sorted.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0, so an idle layer reports 0
// rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a closed-open wall-clock interval in nanoseconds.
type interval struct{ start, end int64 }

// clock0 anchors intervals on the monotonic clock, which span
// durations are also read from, so a child never appears to end after
// its parent because of a wall-clock step.
var clock0 = time.Now()

func ivOf(start time.Time, d time.Duration) interval {
	s := int64(start.Sub(clock0))
	return interval{s, s + int64(d)}
}

func (iv interval) dur() int64 { return iv.end - iv.start }

// unionLen returns the total length covered by the intervals, counting
// overlapping parts once. Parallel sweep chunks overlap, so their busy
// sum overstates the wall time they block; the union is what a parent
// span's self time must subtract.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	total := int64(0)
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.dur()
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.dur()
}

// selfTime returns the part of parent not covered by any child, with
// children clipped to the parent's interval first.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.dur() - unionLen(clipped)
}
