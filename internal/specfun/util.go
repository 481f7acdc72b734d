package specfun

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
