package quad

import (
	"fmt"
	"math"
)

// Result carries an integral estimate together with an error estimate and
// the number of integrand evaluations spent.
type Result struct {
	Value    float64 // integral estimate
	AbsErr   float64 // estimated absolute error
	NumEvals int     // integrand evaluations performed
	BadEvals int     // non-finite integrand values sanitized to 0
	// Converged reports that the driver met its error tolerance (rather
	// than exhausting its subdivision or recursion budget).
	Converged bool
}

// ConvergenceError is the structured failure report of an integrator:
// the estimate it still produced, the error bound it reached, and how
// many integrand evaluations were non-finite. Integrators never return
// NaN silently — inspect Err when the integrand may misbehave.
type ConvergenceError struct {
	Value    float64 // best estimate despite the failure
	AbsErr   float64 // error estimate actually reached
	NumEvals int     // evaluations spent
	BadEvals int     // non-finite integrand values sanitized to 0
}

// Error implements error.
func (e *ConvergenceError) Error() string {
	if e.BadEvals > 0 {
		return fmt.Sprintf("quad: %d of %d integrand evaluations were non-finite (estimate %g, abs err %g)",
			e.BadEvals, e.NumEvals, e.Value, e.AbsErr)
	}
	return fmt.Sprintf("quad: tolerance not reached after %d evaluations (estimate %g, abs err %g)",
		e.NumEvals, e.Value, e.AbsErr)
}

// Err returns nil when the estimate converged cleanly, and a
// *ConvergenceError when the driver hit its subdivision budget or had to
// sanitize non-finite integrand values. The Value of the Result remains
// the best available estimate either way.
func (r Result) Err() error {
	if r.Converged && r.BadEvals == 0 {
		return nil
	}
	return &ConvergenceError{Value: r.Value, AbsErr: r.AbsErr, NumEvals: r.NumEvals, BadEvals: r.BadEvals}
}

// defaultTol is used when a caller passes a non-positive tolerance.
const defaultTol = 1e-10

// maxSimpsonDepth bounds the recursion of the adaptive Simpson scheme; at
// depth 48 the panel width has shrunk by 2^48 and further refinement only
// churns rounding noise.
const maxSimpsonDepth = 48

// Simpson integrates f over [a, b] with the adaptive Simpson scheme to
// absolute tolerance tol (defaultTol if tol <= 0). If a > b the sign of
// the result is flipped accordingly.
func Simpson(f func(float64) float64, a, b, tol float64) Result {
	if tol <= 0 {
		tol = defaultTol
	}
	sign := 1.0
	if a == b {
		return Result{Converged: true}
	}
	if a > b {
		a, b = b, a
		sign = -1
	}
	n, bad := 0, 0
	eval := func(x float64) float64 {
		n++
		v := f(x)
		if math.IsNaN(v) {
			bad++
			return 0
		}
		return v
	}
	fa, fb := eval(a), eval(b)
	m := 0.5 * (a + b)
	fm := eval(m)
	whole := (b - a) / 6 * (fa + 4*fm + fb)
	v, e := simpsonAux(eval, a, b, fa, fm, fb, whole, tol, maxSimpsonDepth)
	countEvals(n)
	return Result{Value: sign * v, AbsErr: e, NumEvals: n, BadEvals: bad, Converged: e <= tol}
}

func simpsonAux(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) (float64, float64) {
	m := 0.5 * (a + b)
	lm := 0.5 * (a + m)
	rm := 0.5 * (m + b)
	flm, frm := f(lm), f(rm)
	left := (m - a) / 6 * (fa + 4*flm + fm)
	right := (b - m) / 6 * (fm + 4*frm + fb)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		return left + right + delta/15, math.Abs(delta) / 15
	}
	lv, le := simpsonAux(f, a, m, fa, flm, fm, left, tol/2, depth-1)
	rv, re := simpsonAux(f, m, b, fm, frm, fb, right, tol/2, depth-1)
	return lv + rv, le + re
}
