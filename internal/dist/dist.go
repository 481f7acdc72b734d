// Package dist implements the probability-law framework of the
// reservation-checkpointing library: the continuous and discrete
// distribution interfaces, the concrete laws studied by Barbut et al.
// (FTXS'23) — Uniform, Exponential, Normal, LogNormal, Gamma, Weibull,
// Poisson, Deterministic — the generic truncation operator that builds the
// paper's checkpoint-duration law D_C from any base law, the IID-sum
// capability that powers the static strategy of Section 4.2, and an
// empirical distribution for trace-driven laws.
//
// All distribution values are immutable after construction and safe for
// concurrent use; sampling requires a caller-owned *rng.Source.
package dist

import (
	"fmt"
	"math"

	"reskit/internal/rng"
)

// Continuous is a continuous probability law on (a subset of) the reals.
type Continuous interface {
	fmt.Stringer

	// PDF returns the density at x (0 outside the support).
	PDF(x float64) float64
	// LogPDF returns log(PDF(x)) (-Inf outside the support).
	LogPDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the smallest x with CDF(x) >= p, for p in [0,1].
	Quantile(p float64) float64
	// Mean returns E[X].
	Mean() float64
	// Variance returns Var[X].
	Variance() float64
	// Support returns the interval outside which the density vanishes.
	Support() (lo, hi float64)
	// Sample draws one variate using the provided generator.
	Sample(r *rng.Source) float64
}

// Discrete is an integer-valued probability law.
type Discrete interface {
	fmt.Stringer

	// PMF returns P(X = k).
	PMF(k int) float64
	// LogPMF returns log P(X = k).
	LogPMF(k int) float64
	// CDF returns P(X <= floor(x)).
	CDF(x float64) float64
	// Mean returns E[X].
	Mean() float64
	// Variance returns Var[X].
	Variance() float64
	// Sample draws one variate using the provided generator.
	Sample(r *rng.Source) int
}

// Summable is a continuous law closed under IID summation, in the
// continuous-relaxation sense required by the static strategy of
// Section 4.2: SumIID(y) for real y > 0 must coincide with the law of
// X_1 + ... + X_n when y = n is an integer.
type Summable interface {
	Continuous
	SumIID(y float64) Continuous
}

// SummableDiscrete is the discrete counterpart of Summable (the Poisson
// instantiation of Section 4.2.3).
type SummableDiscrete interface {
	Discrete
	SumIID(y float64) Discrete
}

// quantileBisect inverts a CDF by bisection over the support; used by laws
// with no closed-form quantile. The CDF must be non-decreasing.
func quantileBisect(cdf func(float64) float64, lo, hi, p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return lo
	case p == 1:
		return hi
	}
	// Establish finite brackets for infinite supports.
	a, b := lo, hi
	if math.IsInf(a, -1) {
		a = -1
		for cdf(a) > p {
			a *= 2
			if a < -1e300 {
				break
			}
		}
	}
	if math.IsInf(b, 1) {
		b = 1
		for cdf(b) < p {
			b *= 2
			if b > 1e300 {
				break
			}
		}
	}
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		if m == a || m == b {
			return m
		}
		if cdf(m) < p {
			a = m
		} else {
			b = m
		}
	}
	return 0.5 * (a + b)
}

// validatePositive panics with a descriptive message unless v > 0.
func validatePositive(name, law string, v float64) {
	if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
		panic(fmt.Sprintf("dist: %s: %s must be positive and finite, got %g", law, name, v))
	}
}

// DiscreteQuantile returns the smallest integer k with P(X <= k) >= p,
// for p in (0, 1]. It walks the CDF from 0, which is ample for the task
// scales of this library; p <= 0 yields 0 and p > 1 yields a panic.
func DiscreteQuantile(d Discrete, p float64) int {
	if math.IsNaN(p) || p > 1 {
		panic(fmt.Sprintf("dist: DiscreteQuantile: p must be in (0, 1], got %g", p))
	}
	if p <= 0 {
		return 0
	}
	// Exponential search then linear walk keeps worst cases bounded.
	hi := 1
	for d.CDF(float64(hi)) < p && hi < 1<<30 {
		hi *= 2
	}
	lo := 0
	for lo < hi {
		mid := (lo + hi) / 2
		if d.CDF(float64(mid)) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
