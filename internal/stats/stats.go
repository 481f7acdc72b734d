// Package stats provides the summary statistics, confidence intervals,
// quantile sketches, sequential stopping rules and goodness-of-fit tests
// used to aggregate and validate the Monte-Carlo experiments of the
// reservation-checkpointing library.
//
// The two goodness-of-fit tests (Kolmogorov–Smirnov for continuous laws,
// chi-square for discrete laws) are how the test-suite proves that the
// from-scratch samplers of internal/rng really draw from the laws of
// internal/dist.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming first and second moments with Welford's
// algorithm, plus extrema. The zero value is an empty summary ready to
// use.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds another summary into s (parallel reduction). The result is
// identical (up to rounding) to having Added all observations into one
// summary.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += o.m2 + delta*delta*n1*n2/total
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// N returns the number of observations.
func (s Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (NaN when empty).
func (s Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN when empty).
func (s Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// CI95 returns the half-width of the asymptotic 95% confidence interval
// of the mean.
func (s Summary) CI95() float64 { return 1.959963984540054 * s.StdErr() }

// String formats the summary for reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.2g (sd=%.4g, min=%.4g, max=%.4g)",
		s.n, s.Mean(), s.CI95(), s.StdDev(), s.Min(), s.Max())
}

// Quantile returns the q-th sample quantile (linear interpolation between
// order statistics) of xs. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}
