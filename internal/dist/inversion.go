package dist

import "math"

// Numerical inversion tables for the truncated laws whose quantile is an
// iterative solver: Gamma (Halley in specfun.GammaIncPInv) and Beta
// (Newton and bisection in specfun.BetaIncRegInv). The construction
// follows Derflinger, Hörmann and Leydold (2010), "Random variate
// generation by numerical inversion when only the density is known"
// (ACM TOMACS 20(4)): the inverse of the truncated CDF is interpolated
// by a Newton polynomial of degree invOrder on adaptive cells, every
// cell is checked at build time against the u-error
//
//	|F(Q̂(u)) − u| ≤ invEps,
//
// and a guide table finds the cell of a uniform in O(1). Both laws have
// an exact CDF, so node u-values come from the CDF instead of from
// quadrature of the density.
//
// A table samples by inversion of one uniform, as the exact quantile
// does, so strategies stay coupled on common random numbers. A law the
// build cannot certify gets no table and keeps the exact quantile.

// invEps is the u-error bound every table is certified to.
const invEps = 1e-12

const (
	// invOrder is the degree of the interpolant in each cell.
	invOrder = 5
	// invTol is the u-error the build allows at its test points, the
	// midpoints of the gaps between two nodes, where the error of the
	// interpolant peaks; the factor covers the error between them.
	invTol = invEps / 4
	// invMaxCells and invMaxAttempts bound the build; a law that needs
	// more is declined.
	invMaxCells    = 4096
	invMaxAttempts = 2 * invMaxCells
	// invResolution is the largest u-step one ulp of x may take at an
	// end of the tabled range: closer to a singular end of the density,
	// or to an atom the doubles make of it near 0, no double meets the
	// bound.
	invResolution = invEps / 16
	// invNoise bounds the rounding noise the truncated CDF
	// (F(x) − F(lo))/mass may carry, taken as 4 ulps of F(hi) divided by
	// the mass. A law truncated to so little mass that the noise reaches
	// invNoise cannot be certified.
	invNoise = invEps / 16
)

// invTails is the ladder of tail probabilities the tabled range may
// leave to the exact quantile at each end: the smallest one whose end
// passes the resolution test is used, and a law none passes is declined.
var invTails = [...]float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}

// invCheb holds the interior node positions of a cell on [0, 1]: the
// Chebyshev extrema (1 − cos(jπ/invOrder))/2 for j = 1..invOrder−1.
var invCheb = func() (c [invOrder - 1]float64) {
	for j := range c {
		c[j] = (1 - math.Cos(float64(j+1)*math.Pi/invOrder)) / 2
	}
	return c
}()

// invCell interpolates the inverse CDF on [x0, next x0): with z = u − u0,
//
//	x = x0 + z(c0 + (z−z0)(c1 + (z−z1)(c2 + (z−z2)(c3 + (z−z3)c4)))),
//
// the Newton form through the nodes z = 0, z0, …, z3 and the cell's
// right edge.
type invCell struct {
	u0, x0 float64
	c      [invOrder]float64
	z      [invOrder - 1]float64
}

func (c *invCell) eval(z float64) float64 {
	y := c.c[4]
	y = c.c[3] + (z-c.z[3])*y
	y = c.c[2] + (z-c.z[2])*y
	y = c.c[1] + (z-c.z[1])*y
	y = c.c[0] + (z-c.z[0])*y
	return c.x0 + z*y
}

// invTable is an immutable inversion table of a truncated law, covering
// u in [uMin, uMax). cells ends with a sentinel holding uMax and the
// right edge of the last cell; guide[k] is the last cell starting at or
// below the k-th of len(guide)−1 equal slots of the range.
type invTable struct {
	uMin, uMax float64
	gScale     float64
	cells      []invCell
	guide      []int32
}

// quantile returns Q̂(u) for u in [uMin, uMax).
func (tb *invTable) quantile(u float64) float64 {
	i := int(tb.guide[int((u-tb.uMin)*tb.gScale)])
	for u >= tb.cells[i+1].u0 {
		i++
	}
	c := &tb.cells[i]
	x := c.eval(u - c.u0)
	// z can pass the cell's last node by a rounding error; keep the
	// result inside the cell so Q̂ stays monotone across cells.
	if hi := tb.cells[i+1].x0; x > hi {
		return hi
	}
	if x < c.x0 {
		return c.x0
	}
	return x
}

// newInvTable builds the inversion table of t, or returns nil when t's
// base law has a closed-form quantile or the build cannot certify it.
func newInvTable(t *Truncated) *invTable {
	switch t.Base.(type) {
	case Gamma, Beta:
		return buildInvTable(t)
	}
	return nil
}

// buildInvTable certifies a table for t or returns nil.
func buildInvTable(t *Truncated) *invTable {
	if 4*0x1p-52*t.fHi/t.mass > invNoise {
		return nil
	}
	xLo, okLo := t.invEnd(false)
	xHi, okHi := t.invEnd(true)
	if !okLo || !okHi || !(xLo < xHi) {
		return nil
	}
	return fitInvCells(t.Base, t.fLo, t.mass, xLo, xHi)
}

// invEnd returns the end of the tabled range on one side: the point
// where the truncated CDF crosses the first rung of invTails whose
// resolution test passes. It solves on the CDF rather than calling
// Quantile, so the range ends where the ladder says even where the
// iterative solver stops short in a deep tail.
func (t *Truncated) invEnd(upper bool) (float64, bool) {
	for _, tail := range invTails {
		u := tail
		if upper {
			u = 1 - tail
		}
		x := t.cdfCross(u)
		if math.IsInf(x, 0) {
			return 0, false
		}
		below := t.CDF(math.Nextafter(x, math.Inf(-1)))
		above := t.CDF(math.Nextafter(x, math.Inf(1)))
		if above-below <= 2*invResolution {
			return x, true
		}
	}
	return 0, false
}

// cdfCross returns the smallest double x with CDF(x) >= u, for u in
// (0, 1) and a law on [0, inf) (Gamma and Beta bases), by bisection over
// the ordered bit patterns of the non-negative doubles: at most 64
// steps at any scale, down to subnormals.
func (t *Truncated) cdfCross(u float64) float64 {
	a, b := math.Float64bits(math.Max(t.Lo, 0)), math.Float64bits(t.Hi)
	for b-a > 1 {
		m := a + (b-a)/2
		if t.CDF(math.Float64frombits(m)) < u {
			a = m
		} else {
			b = m
		}
	}
	return math.Float64frombits(b)
}

// invBuilder holds what the cell fits of one build share: the base CDF,
// batched, the truncated mass, and scratch for the points one fit
// evaluates: the nodes after the first, then the gap midpoints.
type invBuilder struct {
	cdf    func(xs, out []float64)
	mass   float64
	xs, fs [2 * invOrder]float64
	tz     [invOrder]float64
}

// fitInvCells covers [xLo, xHi] with cells left to right. A cell is
// accepted when its interpolant meets invTol at every gap midpoint and
// lies inside that gap there; the next width is scaled by the error
// ratio, as the error of a degree-n interpolant scales with width^(n+1).
func fitInvCells(base Continuous, fLo, mass, xLo, xHi float64) *invTable {
	bld := &invBuilder{cdf: AsBatch(base).CDFBatch, mass: mass}
	var (
		cells []invCell
		a     = xLo
		fa    = base.CDF(a)
		h     = (xHi - xLo) / 64
	)
	for attempt := 0; a < xHi; attempt++ {
		if attempt == invMaxAttempts || len(cells) == invMaxCells {
			return nil
		}
		// A cell spans about a factor 2 in x at most: where x(u) is flat
		// at a singular end (x ∝ u^5 for Beta(0.2, ·)), a wider cell would
		// ask the interpolant for an x orders of magnitude below its
		// terms, which cancel to rounding noise there.
		h = math.Min(h, a)
		b := a + h
		if b > xHi-h/4 {
			b = xHi
		}
		if b-a <= 64*(math.Nextafter(b, math.Inf(1))-b) {
			return nil // narrower than the resolution of x: uncertifiable
		}
		cell, fb, ratio := bld.fit(a, fa, b)
		grow := 2.0
		if ratio > 0 {
			grow = 0.9 * math.Pow(ratio, -1.0/(invOrder+1))
		}
		if ratio > 1 {
			h = (b - a) * math.Max(0.25, math.Min(grow, 0.5))
			continue
		}
		cell.u0 = (fa - fLo) / mass
		cells = append(cells, cell)
		h = (b - a) * math.Max(0.5, math.Min(grow, 2))
		a, fa = b, fb
	}
	uMax := (fa - fLo) / mass
	cells = append(cells, invCell{u0: uMax, x0: xHi})
	n := len(cells) - 1
	tb := &invTable{uMin: cells[0].u0, uMax: uMax, cells: cells}
	if !(tb.uMin < uMax) {
		return nil
	}
	tb.gScale = float64(n) / (uMax - tb.uMin)
	tb.guide = make([]int32, n+1)
	i := 0
	for k := range tb.guide {
		// The slot's threshold sits a hair below where the index
		// arithmetic of quantile can first land on k, so the guide never
		// points past the cell of a u mapped to k.
		th := tb.uMin + (float64(k)-1e-9)/tb.gScale
		for i+1 < n && cells[i+1].u0 <= th {
			i++
		}
		tb.guide[k] = int32(i)
	}
	return tb
}

// fit interpolates the inverse CDF on [a, b] and returns the cell (u0
// unset), F(b), and the largest u-error at the gap midpoints relative to
// invTol: +Inf when the nodes are not strictly increasing in u or the
// interpolant leaves a gap at its midpoint.
func (bld *invBuilder) fit(a, fa, b float64) (cell invCell, fb, ratio float64) {
	// Nodes: a, the Chebyshev points, b.
	var xs, zs [invOrder + 1]float64
	xs[0] = a
	for j, s := range invCheb {
		xs[j+1] = a + (b-a)*s
	}
	xs[invOrder] = b
	nx, nf := bld.xs[:invOrder], bld.fs[:invOrder]
	copy(nx, xs[1:])
	bld.cdf(nx, nf)
	fb = nf[invOrder-1]
	for j := 1; j <= invOrder; j++ {
		zs[j] = (nf[j-1] - fa) / bld.mass
		if !(zs[j] > zs[j-1]) || math.IsInf(zs[j], 0) {
			return cell, fb, math.Inf(1)
		}
	}

	// Divided differences of y = x − a over z.
	var d [invOrder + 1]float64
	for j := range d {
		d[j] = xs[j] - a
	}
	for k := 1; k <= invOrder; k++ {
		for j := invOrder; j >= k; j-- {
			d[j] = (d[j] - d[j-1]) / (zs[j] - zs[j-k])
		}
	}
	cell.x0 = a
	copy(cell.c[:], d[1:])
	copy(cell.z[:], zs[1:invOrder])

	// The interpolant at the gap midpoints: each must lie in its gap.
	tx, tz, tf := bld.xs[invOrder:], bld.tz[:], bld.fs[invOrder:]
	for j := range tz {
		tz[j] = (zs[j] + zs[j+1]) / 2
		tx[j] = cell.eval(tz[j])
		if !(tx[j] >= xs[j] && tx[j] <= xs[j+1]) {
			return cell, fb, math.Inf(1)
		}
	}
	bld.cdf(tx, tf)
	var worst float64
	for i, f := range tf {
		e := math.Abs((f-fa)/bld.mass - tz[i])
		if !(e <= worst) {
			if math.IsNaN(e) {
				return cell, fb, math.Inf(1)
			}
			worst = e
		}
	}
	return cell, fb, worst / invTol
}
