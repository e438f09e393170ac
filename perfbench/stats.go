package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two stragglers
// and not a property of the run.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank,
// and whether the sample supports it: at least minBeyond samples lie
// strictly beyond its rank. xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the 0.5 percentile without the support rule: the benchmark
// uses it to summarize repeated set-up runs and per-layer samples, where
// the sample count is printed beside it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// familyGeomean is the geometric mean over groups of the geometric mean
// of each group's values, xs being indexed as the groups' members.
func familyGeomean(groups [][]int, xs []float64) float64 {
	var means []float64
	for _, g := range groups {
		var v []float64
		for _, i := range g {
			v = append(v, xs[i])
		}
		means = append(means, geomean(v))
	}
	return geomean(means)
}

// geomean is the geometric mean of positive values; non-positive inputs
// make it 0 so a missing per-statement median cannot pass unnoticed.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// interval is a closed time range in nanoseconds on one clock.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another and may stick out of the
// parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range cs {
		if c.start > cur.end {
			if cur.end > cur.start {
				covered += cur.end - cur.start
			}
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	if cur.end > cur.start {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
