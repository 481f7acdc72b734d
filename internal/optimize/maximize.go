package optimize

import "math"

// invPhi is 1/phi where phi is the golden ratio.
const invPhi = 0.6180339887498948482045868343656381

// MaxResult reports the location and value of a maximum found by one of
// the maximizers.
type MaxResult struct {
	X float64 // argmax estimate
	F float64 // objective value at X
}

// GoldenSection maximizes f on [a, b] by golden-section search. It is
// guaranteed to converge to the maximum of a unimodal objective and to a
// local maximum otherwise. The abscissa is resolved to xtol.
func GoldenSection(f func(float64) float64, a, b, xtol float64) MaxResult {
	if xtol <= 0 {
		xtol = 1e-10
	}
	if a > b {
		a, b = b, a
	}
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > xtol {
		if f1 < f2 {
			a = x1
			x1, f1 = x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		} else {
			b = x2
			x2, f2 = x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		}
	}
	x := 0.5 * (a + b)
	return MaxResult{X: x, F: f(x)}
}

// MaxGridRefine maximizes f on [a, b] by evaluating a uniform grid of n
// points (n >= 3) and then running golden-section search on the bracket
// around the best grid point. It does not require unimodality as long as
// the grid is fine enough to land in the basin of the global maximum.
func MaxGridRefine(f func(float64) float64, a, b float64, n int, xtol float64) MaxResult {
	if n < 3 {
		n = 3
	}
	if a > b {
		a, b = b, a
	}
	best, bestX := math.Inf(-1), a
	step := (b - a) / float64(n-1)
	for i := 0; i < n; i++ {
		x := a + float64(i)*step
		if v := f(x); v > best {
			best, bestX = v, x
		}
	}
	lo := math.Max(a, bestX-step)
	hi := math.Min(b, bestX+step)
	r := GoldenSection(f, lo, hi, xtol)
	if r.F < best {
		return MaxResult{X: bestX, F: best}
	}
	return r
}

// ArgmaxInt compares f at the floor and ceiling of y (both clamped to at
// least lo) and returns the better integer. It implements the paper's
// rule "n_opt is floor(y_opt) or ceil(y_opt), whichever gives the larger
// value" (Sections 4.2.1–4.2.3).
func ArgmaxInt(f func(int) float64, y float64, lo int) (int, float64) {
	fl := int(math.Floor(y))
	cl := int(math.Ceil(y))
	if fl < lo {
		fl = lo
	}
	if cl < lo {
		cl = lo
	}
	if fl == cl {
		return fl, f(fl)
	}
	vf, vc := f(fl), f(cl)
	if vc > vf {
		return cl, vc
	}
	return fl, vf
}
