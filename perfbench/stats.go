package main

import (
	"math"
	"slices"
)

// quantile returns the exact nearest-rank q-quantile of the raw
// samples: the smallest sample with at least a q share of the samples
// at or below it. No bucketing and no interpolation, so a reported
// percentile is always one of the measured values. It sorts samples in
// place and returns NaN for an empty set.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	return sortedQuantile(samples, q)
}

// sortedQuantile is quantile over samples already in ascending order.
func sortedQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// slicedQuantile returns the median of the exact q-quantiles of the
// non-empty slices, and the total sample count; NaN when every slice is
// empty.
func slicedQuantile(slices [][]float32, q float64) (float64, int) {
	var per []float64
	n := 0
	for _, s := range slices {
		if len(s) > 0 {
			per = append(per, quantile(widen(s), q))
			n += len(s)
		}
	}
	return quantile(per, 0.5), n
}

// perRef divides each round's rate by that round's reference rate,
// skipping rounds without a rate.
func perRef(rates, refs []float64) []float64 {
	var out []float64
	for i, v := range rates {
		if !math.IsNaN(v) {
			out = append(out, v/refs[i])
		}
	}
	return out
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// sum adds the samples.
func sum(samples []float64) float64 {
	var s float64
	for _, v := range samples {
		s += v
	}
	return s
}

// mean is the arithmetic mean; NaN for an empty set.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return sum(samples) / float64(len(samples))
}

// maxOf is the largest sample; 0 for an empty set.
func maxOf(samples []float64) float64 {
	m := 0.0
	for i, v := range samples {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
