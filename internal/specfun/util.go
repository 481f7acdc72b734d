package specfun

import "math"

// Log1mExp returns log(1 - exp(x)) for x <= 0, using the two-branch
// algorithm of Mächler (2012) for full accuracy near 0 and -inf.
func Log1mExp(x float64) float64 {
	if x > 0 {
		return math.NaN()
	}
	if x == 0 {
		return math.Inf(-1)
	}
	const ln2 = 0.6931471805599453
	if x > -ln2 {
		return math.Log(-math.Expm1(x))
	}
	return math.Log1p(-math.Exp(x))
}

// Clamp01 clips v into [0, 1]; probabilities assembled from differences of
// CDF evaluations can stray out of range by a rounding error.
func Clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}
