package optimize

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when f(a) and f(b) have the same sign, so no
// root is guaranteed inside [a, b].
var ErrNoBracket = errors.New("optimize: f(a) and f(b) do not bracket a root")

// ErrMaxIterations is returned when an iterative method exhausts its
// iteration budget before reaching the requested tolerance. The best
// estimate so far is still returned alongside it.
var ErrMaxIterations = errors.New("optimize: maximum iterations exceeded")

// ErrNonFinite is the sentinel wrapped by ConvergenceError when the
// objective returns NaN or Inf at a point the solver cannot route around.
var ErrNonFinite = errors.New("optimize: objective returned a non-finite value")

// ConvergenceError is the structured failure report of a root finder: it
// names the method, carries the best abscissa estimate reached, the
// iterations spent, and wraps the sentinel (ErrMaxIterations,
// ErrNoBracket or ErrNonFinite) that errors.Is can match.
type ConvergenceError struct {
	Method string  // "bisect", "brent", "newton"
	Best   float64 // best root estimate when the method gave up
	Iters  int     // iterations consumed
	Reason error   // sentinel: ErrMaxIterations, ErrNoBracket, ErrNonFinite
}

// Error implements error.
func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("optimize: %s failed after %d iterations near x=%g: %v",
		e.Method, e.Iters, e.Best, e.Reason)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *ConvergenceError) Unwrap() error { return e.Reason }

// defaultXTol is the abscissa tolerance used when a non-positive tolerance
// is supplied.
const defaultXTol = 1e-12

// evalFinite evaluates f at x; when the value is non-finite it probes a
// few nudged abscissae inside [lo, hi] (the bracketed-bisection fallback
// for integrands that divide by zero or overflow at isolated points) and
// reports ok = false only when every probe is non-finite too.
func evalFinite(f func(float64) float64, x, lo, hi float64) (fx float64, ok bool) {
	fx = f(x)
	if !math.IsNaN(fx) && !math.IsInf(fx, 0) {
		return fx, true
	}
	countNonFiniteRetry()
	span := hi - lo
	for _, frac := range [...]float64{1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3} {
		xp := x + frac*span
		if xp <= lo || xp >= hi {
			continue
		}
		if v := f(xp); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v, true
		}
	}
	return fx, false
}

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must have
// opposite signs. The returned x satisfies |interval| <= xtol. Non-finite
// midpoint values are routed around by probing nudged abscissae; when
// that fails the error is a *ConvergenceError wrapping ErrNonFinite.
func Bisect(f func(float64) float64, a, b, xtol float64) (float64, error) {
	if xtol <= 0 {
		xtol = defaultXTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return math.NaN(), &ConvergenceError{Method: "bisect", Best: math.NaN(), Reason: ErrNonFinite}
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return math.NaN(), ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		if b-a <= xtol || m == a || m == b {
			return m, nil
		}
		fm, ok := evalFinite(f, m, a, b)
		if !ok {
			return m, &ConvergenceError{Method: "bisect", Best: m, Iters: i, Reason: ErrNonFinite}
		}
		if fm == 0 {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	best := 0.5 * (a + b)
	return best, &ConvergenceError{Method: "bisect", Best: best, Iters: 200, Reason: ErrMaxIterations}
}

// Brent finds a root of f in [a, b] with Brent's method (inverse quadratic
// interpolation, secant, and bisection safeguards). f(a) and f(b) must
// have opposite signs.
func Brent(f func(float64) float64, a, b, xtol float64) (float64, error) {
	if xtol <= 0 {
		xtol = defaultXTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return math.NaN(), &ConvergenceError{Method: "brent", Best: math.NaN(), Reason: ErrNonFinite}
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return math.NaN(), ErrNoBracket
	}
	lo, hi := a, b
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < 200; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		const eps = 2.220446049250313e-16
		tol1 := 2*eps*math.Abs(b) + 0.5*xtol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e = d
				d = p / q
			} else {
				d = xm
				e = d
			}
		} else {
			d = xm
			e = d
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
		if math.IsNaN(fb) || math.IsInf(fb, 0) {
			// The interpolation step landed on a pole or overflow.
			// Restart with plain bracketed bisection on the surviving
			// sign-change interval [a, c] (the bracket before this
			// step), which routes around isolated non-finite points.
			countBisectFallback()
			blo, bhi := a, c
			if blo > bhi {
				blo, bhi = bhi, blo
			}
			if blo < lo {
				blo = lo
			}
			if bhi > hi {
				bhi = hi
			}
			x, err := Bisect(f, blo, bhi, xtol)
			if err != nil {
				return x, &ConvergenceError{Method: "brent", Best: x, Iters: i, Reason: ErrNonFinite}
			}
			return x, nil
		}
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
	}
	return b, &ConvergenceError{Method: "brent", Best: b, Iters: 200, Reason: ErrMaxIterations}
}
