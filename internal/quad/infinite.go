package quad

import "math"

// SemiInfinite integrates f over [a, +inf) by the substitution
// x = a + t/(1-t), t in [0, 1), which maps the half-line onto the unit
// interval; dx = dt/(1-t)^2. The transformed integrand is handed to the
// adaptive Kronrod integrator.
func SemiInfinite(f func(float64) float64, a, absTol, relTol float64) Result {
	g := func(t float64) float64 {
		if t >= 1 {
			return 0
		}
		om := 1 - t
		x := a + t/om
		v := f(x)
		if v == 0 || math.IsNaN(v) {
			return 0
		}
		return v / (om * om)
	}
	return Kronrod(g, 0, 1, absTol, relTol)
}
