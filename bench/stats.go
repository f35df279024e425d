package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of v (mean of the two middle values for an even
// count); NaN for an empty slice, so a phase that produced no sample cannot
// pass the finite-value check unnoticed.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v the way Python's
// statistics.quantiles(values, n) cuts (its default "exclusive" method: the
// cut sits at position q(N+1) of the sorted values, interpolated linearly),
// because that is what the acceptance check of the benchmark contract
// computes its quartiles with. Past the ends it returns the end value.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	if q3 == q1 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// repeat calls f until the time budget is spent, but at least minN and at most
// maxN times.
func repeat(budget time.Duration, minN, maxN int, f func()) {
	start := time.Now()
	for n := 0; n < maxN && (n < minN || time.Since(start) < budget); n++ {
		f()
	}
}

// sample is repeat for an f that times itself (so that it can keep its own
// set-up and checks outside the measured region); it returns the values.
func sample(budget time.Duration, minN, maxN int, f func() float64) []float64 {
	var out []float64
	repeat(budget, minN, maxN, func() { out = append(out, f()) })
	return out
}

// timeIt returns the wall-clock seconds f took.
func timeIt(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}
