package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"reskit/internal/dist"
	"reskit/internal/optimize"
	"reskit/internal/quad"
)

// ErrNoIntersection is returned by Intersection when E(W_C) never
// overtakes E(W_+1) on (0, R) — checkpointing immediately is never the
// better option inside the reservation (or always is).
var ErrNoIntersection = errors.New("core: expected-work curves do not cross inside (0, R)")

// ErrPointMassTask is returned by TryNewDynamic for a task law whose
// support is a single point: the rule integrates the task density, and
// a point mass has none. A point-mass checkpoint law is fine, because
// the rule reads only its CDF.
var ErrPointMassTask = errors.New("core: the dynamic rule needs a task density, and a point-mass task law has none")

// Dynamic is the Section 4.3 problem: at the end of each task, knowing
// the work W_n accumulated so far, decide whether to checkpoint now or to
// run (at least) one more task. The decision compares
//
//	E(W_C)  = W_n * P(C <= R - W_n)
//	E(W_+1) = Integral_0^{R-W_n} (x + W_n) * P(C <= R - W_n - x) * f_X(x) dx
//
// and checkpoints as soon as E(W_C) >= E(W_+1). Exactly one of Task
// (continuous) and TaskDisc (discrete) is set.
type Dynamic struct {
	R        float64
	Ckpt     dist.Continuous // D_C, support within [0, inf)
	Task     dist.Continuous // D_X (truncated Normal, Gamma, ...)
	TaskDisc dist.Discrete   // discrete D_X (Poisson)

	// Batched views of Ckpt and Task (native or adapter) feeding the
	// quadrature kernels; taskB is nil in the discrete case.
	ckptB dist.BatchContinuous
	taskB dist.BatchContinuous

	// Lazily built coefficient table for O(1) generalized decisions
	// (see ShouldCheckpointAt): the samples tableA/tableB, the certified
	// cubic cells fitted to them, and each cell's decision guard, kept
	// in a slice of their own so the 16 KB that nearly every decision
	// reads stay dense in cache. Builds are serialized by tableMu rather
	// than a sync.Once so a build cancelled through Prebuild can be
	// retried; tableReady flips to true only after the samples, cells
	// and guards are fully written, so readers that observe it true may
	// use them without taking the mutex. The flag is the hot-path gate:
	// every Monte-Carlo boundary decision funnels through
	// ShouldCheckpointAt, and an uncontended mutex there costs more than
	// the decision.
	tableMu        sync.Mutex
	tableReady     atomic.Bool
	tableA, tableB []float64
	cells          []coeffCell
	guards         []decisionGuard
	cellsPerUnit   float64 // GridSize / R: budget to cell coordinate
}

// NewDynamic builds the dynamic problem for a continuous task law
// (Sections 4.3.1 truncated Normal and 4.3.2 Gamma).
func NewDynamic(r float64, task dist.Continuous, ckpt dist.Continuous) *Dynamic {
	d, err := TryNewDynamic(r, task, ckpt)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// NewDynamicDiscrete builds the dynamic problem for a discrete task law
// (Section 4.3.3 Poisson).
func NewDynamicDiscrete(r float64, task dist.Discrete, ckpt dist.Continuous) *Dynamic {
	d, err := TryNewDynamicDiscrete(r, task, ckpt)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// ckptProb returns P(C <= w), zero for w <= 0.
func (d *Dynamic) ckptProb(w float64) float64 {
	if w <= 0 {
		return 0
	}
	return d.Ckpt.CDF(w)
}

// ExpectedWorkCheckpoint returns E(W_C)(w) = w * P(C <= R - w), the
// expected saved work when checkpointing immediately with work w done.
func (d *Dynamic) ExpectedWorkCheckpoint(w float64) float64 {
	if w <= 0 {
		return 0
	}
	return w * d.ckptProb(d.R-w)
}

// ExpectedWorkContinue returns E(W_+1)(w), the expected saved work when
// executing exactly one more task before checkpointing, with work w done.
func (d *Dynamic) ExpectedWorkContinue(w float64) float64 {
	return d.expectedContinue(w, d.R-w)
}

// dynScratch holds the per-panel node buffers of the batched dynamic
// integrands: remaining budgets, checkpoint CDF values, task densities.
// Pooled so the adaptive quadrature underneath allocates nothing in
// steady state.
type dynScratch struct {
	ws, cs, ps []float64
}

func (s *dynScratch) grow(n int) {
	if cap(s.ws) < n {
		s.ws = make([]float64, n)
		s.cs = make([]float64, n)
		s.ps = make([]float64, n)
	}
}

var dynPool = sync.Pool{New: func() interface{} { return new(dynScratch) }}

// expectedContinue evaluates E(W_+1) with an explicit remaining budget,
// decoupling uncommitted work from elapsed time. The continuous case
// feeds the batched quadrature kernel: one call per Kronrod panel covers
// all 15 nodes of P(C <= budget-x) and f_X(x).
func (d *Dynamic) expectedContinue(work, budget float64) float64 {
	if budget <= 0 {
		return 0
	}
	if d.TaskDisc != nil {
		// One CDFBatch call covers P(C <= budget-j) for every feasible
		// task count, mirroring the batched continuous kernel below.
		s := dynPool.Get().(*dynScratch)
		defer dynPool.Put(s)
		n := int(math.Floor(budget)) + 1
		s.grow(n)
		ws, cs := s.ws[:n], s.cs[:n]
		for j := range ws {
			ws[j] = budget - float64(j)
		}
		d.ckptB.CDFBatch(ws, cs)
		var sum float64
		for j := range ws {
			c := cs[j]
			if ws[j] <= 0 {
				c = 0
			}
			sum += (float64(j) + work) * c * d.TaskDisc.PMF(j)
		}
		return sum
	}
	s := dynPool.Get().(*dynScratch)
	defer dynPool.Put(s)
	integrand := func(xs, out []float64) {
		n := len(xs)
		s.grow(n)
		ws, cs, ps := s.ws[:n], s.cs[:n], s.ps[:n]
		for i, x := range xs {
			ws[i] = budget - x
		}
		d.ckptB.CDFBatch(ws, cs)
		d.taskB.PDFBatch(xs, ps)
		for i, x := range xs {
			c := cs[i]
			if ws[i] <= 0 {
				c = 0
			}
			out[i] = (x + work) * c * ps[i]
		}
	}
	return integrateBetweenKinks(integrand, budget, d.Task, d.Ckpt)
}

// integrateBetweenKinks returns the batched Kronrod integral over
// [0, budget] of an integrand carrying the factors P(C <= budget-x) and
// f_X(x), for task law `task` and checkpoint law `ckpt`, at the
// tolerance (1e-12, 1e-10) of every dynamic integral. It integrates only
// where both factors can be nonzero, [max(0, lo_X), min(budget, hi_X,
// budget-lo_C)], and splits that range at budget-hi_C: the ends of the
// task support are jumps of f_X, and budget-lo_C and budget-hi_C are
// kinks of the checkpoint CDF. Inside the pieces the integrand is
// smooth, so the adaptive error estimate holds; across a jump or kink
// it can miss by orders of magnitude (6.6e-4 on Gamma(2,1)|[0.5,8]).
// For laws supported on [0, inf), the paper's, the range is [0, budget]
// in one piece.
func integrateBetweenKinks(f quad.BatchFunc, budget float64, task, ckpt dist.Continuous) float64 {
	taskLo, taskHi := task.Support()
	ckptLo, ckptHi := ckpt.Support()
	lo := math.Max(0, taskLo)
	hi := math.Min(math.Min(budget, taskHi), budget-ckptLo)
	if !(hi > lo) {
		return 0
	}
	if mid := budget - ckptHi; lo < mid && mid < hi {
		return quad.KronrodBatch(f, lo, mid, 1e-12, 1e-10).Value +
			quad.KronrodBatch(f, mid, hi, 1e-12, 1e-10).Value
	}
	return quad.KronrodBatch(f, lo, hi, 1e-12, 1e-10).Value
}

// ShouldCheckpoint reports whether, with work w accumulated, the expected
// saved work of checkpointing now is at least that of running one more
// task — the paper's stopping rule.
func (d *Dynamic) ShouldCheckpoint(w float64) bool {
	return d.ExpectedWorkCheckpoint(w) >= d.ExpectedWorkContinue(w)
}

// ShouldCheckpointAt generalizes the stopping rule to states where the
// elapsed reservation time differs from the uncommitted work — the
// situation of Section 4.4, when execution continues after an earlier
// successful checkpoint. With budget = R - elapsed it compares
//
//	E(W_C)  = work * P(C <= budget)
//	E(W_+1) = Integral_0^budget (x + work) P(C <= budget - x) f_X(x) dx.
//
// The difference is linear in work for a fixed budget:
//
//	E(W_C) - E(W_+1) = work * A(budget) - B(budget)
//	A(b) = P(C <= b) - Integral_0^b P(C <= b - x) f_X(x) dx   (>= 0)
//	B(b) = Integral_0^b x * P(C <= b - x) f_X(x) dx           (>= 0)
//
// so the decision reduces to work*A >= B. A and B are sampled once on a
// budget grid and interpolated by a cubic per cell that carries error
// bounds eA, eB (see certify), making the per-boundary decision O(1) in
// large Monte-Carlo runs. The table decides whenever
// |work*a - b| > work*eA + eB, where its sign is certain. Inside that
// band, a state whose work*A and B are both below tieFloor is a tie —
// the two options are worth the same to within 1e-9, below what the
// exact integrals resolve — and the paper's >= makes a tie a
// checkpoint; any other state re-runs the exact integrals.
//
// Before any of that, the cell's guard (see cellGuard) answers every
// state whose work lies outside an interval on which the table's sign
// can be in doubt, with two comparisons and no cubic: it gives the
// table's own answer there, bit for bit.
func (d *Dynamic) ShouldCheckpointAt(work, elapsed float64) bool {
	budget := d.R - elapsed
	if budget <= 0 {
		return true
	}
	if work <= 0 {
		// Nothing to commit: checkpoint only if one more task is also
		// worthless.
		countExactDecision()
		return d.expectedContinue(0, budget) <= 0
	}
	if !d.tableReady.Load() {
		// Built on first use; after that the decision is lock-free.
		d.ensureTable(context.Background()) //nolint:errcheck // background ctx never cancels
	}
	j, t := d.cellAt(budget)
	// An infinite work makes the table's band infinite too; it stays
	// with the table.
	if g := &d.guards[j]; work < g.lo {
		return false
	} else if work > g.hi && work <= math.MaxFloat64 {
		return true
	}
	return d.decideInCell(&d.cells[j], t, work, budget)
}

// decideInCell is ShouldCheckpointAt for a state of positive work at
// cell coordinate t of cell c: the certified table, then the dead zone,
// then the exact integrals. It is the whole decision for the states the
// cell's guard leaves open, and the reference the guard is tested
// against everywhere else.
func (d *Dynamic) decideInCell(c *coeffCell, t, work, budget float64) bool {
	a, b := c.at(t)
	diff := work*a - b
	if tol := work*c.ea + c.eb; diff > tol || diff < -tol {
		return diff > 0
	}
	if work*(a+c.ea) <= tieFloor && b+c.eb <= tieFloor {
		countDeadZoneDecision()
		return true
	}
	countExactDecision()
	return work*d.ckptProb(budget) >= d.expectedContinue(work, budget)
}

// tieFloor is the dead-zone level of ShouldCheckpointAt. Where work*A and
// B are both certified below it, |E(W_C) - E(W_+1)| <= tieFloor: the
// reservation is about to close, neither option can save anything, and
// the exact rule would only compare quadrature noise (the integrals
// carry an absolute tolerance of 1e-12 per evaluation).
const tieFloor = 1e-9

// dynamicGridSize is the budget-grid resolution of the coefficient
// table. Its cells are R/1024 wide, so the interpolation error grows
// with R: the cubics are within 3.3e-7 of A and B on the R = 29 paper
// instances and within 1.4e-4 on V11 (R = 100, where work*A multiplies
// it by ~95). No fixed tolerance covers both; the per-cell bounds do,
// and they set how close to the indifference line a state must be to
// need the exact integrals. At 128 cells the error is 1.2e-3 (R = 29).
const dynamicGridSize = 1024

// coeffCell is one cell [b_j, b_j+1] of the certified coefficient
// table: A and B as cubics in the cell coordinate t in [0, 1]
// (a[0] + a[1]t + a[2]t² + a[3]t³, likewise b) with their error bounds.
type coeffCell struct {
	a, b   [4]float64
	ea, eb float64
}

// at evaluates the cell's interpolants of A and B at t.
func (c *coeffCell) at(t float64) (a, b float64) {
	a = ((c.a[3]*t+c.a[2])*t+c.a[1])*t + c.a[0]
	b = ((c.b[3]*t+c.b[2])*t+c.b[1])*t + c.b[0]
	return a, b
}

// decisionGuard is the work interval [lo, hi] of one cell outside which
// the cell's certified cubics settle the decision at every point of the
// cell: for work < lo the table reads continue (work*a - b below minus
// its band), for work > hi checkpoint. lo = 0 or hi = +Inf leaves that
// side to the table.
type decisionGuard struct {
	lo, hi float64
}

// guardSlack is 64u, u = 2^-53 the unit roundoff: the relative margin
// cellGuard leaves for rounding (see there).
const guardSlack = 0x1p-47

// cellGuard derives the guard of cell c from its cubics and bounds alone.
// Interval Horner over t in [0, 1] (where every t^k is in [0, 1]) bounds
// the cubics, a(t) in [aLo, aHi] with aLo = a0 + sum min(a_k, 0) and
// aHi = a0 + sum max(a_k, 0), likewise b(t). The table reads continue
// when work*(a + eA) < b - eB and checkpoint when work*(a - eA) > b + eB,
// which every t of the cell meets when
//
//	work < lo = (bLo - eB - rhoB) / (aHi + eA + rhoA) * (1 - 4u)
//	work > hi = (bHi + eB + rhoB) / (aLo - eA - rhoA) * (1 + 4u)
//
// with rho = 64u * (sum |c_k| + e) per cubic. rho covers the rounding of
// the Horner evaluation (gamma_6 * sum |c_k|), of work*a - b and
// work*eA + eB, and of this derivation with a fourfold reserve, and the
// 4u factor the rounding of the quotient, so the floating-point table
// test reads the same sign as the exact argument (DESIGN §6). A side
// whose numerator is not positive settles nothing (lo = 0, hi = +Inf
// for a non-positive denominator); NaN anywhere settles nothing. The
// argument needs eA <= 1/2, so that work*eA + eB stays finite at every
// finite work, and sum |c_k| + e <= 2^500 per cubic, so that no
// quotient above leaves the normal range; a table of the paper's
// quantities (A in [0, 1], B <= R) meets both by far, and a cell that
// does not gets no guard.
func cellGuard(c *coeffCell) decisionGuard {
	open := decisionGuard{lo: 0, hi: math.Inf(1)}
	aLo, aHi, sA := cubicRange(&c.a)
	bLo, bHi, sB := cubicRange(&c.b)
	if !(c.ea <= 0.5 && sA+c.ea <= 0x1p500 && sB+c.eb <= 0x1p500) {
		return open
	}
	rhoA := guardSlack * (sA + c.ea)
	rhoB := guardSlack * (sB + c.eb)
	g := open
	if num, den := bLo-c.eb-rhoB, aHi+c.ea+rhoA; num > 0 {
		if den <= 0 {
			g.lo = math.Inf(1)
		} else {
			g.lo = num / den * (1 - 0x1p-51)
		}
	}
	if num, den := bHi+c.eb+rhoB, aLo-c.ea-rhoA; den > 0 {
		if num <= 0 {
			g.hi = 0
		} else {
			g.hi = num / den * (1 + 0x1p-51)
		}
	}
	return g
}

// cubicRange returns interval-Horner bounds of c[0] + c[1]t + c[2]t² +
// c[3]t³ over t in [0, 1], and sum |c_k|.
func cubicRange(c *[4]float64) (lo, hi, abs float64) {
	lo, hi, abs = c[0], c[0], math.Abs(c[0])
	for _, ck := range c[1:] {
		lo += min(ck, 0)
		hi += max(ck, 0)
		abs += math.Abs(ck)
	}
	return lo, hi, abs
}

// cellAt returns the index of the cell holding budget and the cell
// coordinate t of budget in it; the table must be built. Budgets at or
// past R evaluate the last cell at its right end, which is the sample
// at R.
func (d *Dynamic) cellAt(budget float64) (int, float64) {
	pos := budget * d.cellsPerUnit
	if pos >= dynamicGridSize {
		return dynamicGridSize - 1, 1
	}
	i := int(pos)
	return i, pos - float64(i)
}

// Prebuild computes the coefficient table eagerly, honoring ctx: grid
// points are independent integrals evaluated across all CPUs, and on
// cancellation the partial table is discarded (never recorded as built),
// so a later Prebuild or decision call rebuilds it from scratch.
// Decision paths that find the table already built never block on it.
func (d *Dynamic) Prebuild(ctx context.Context) error {
	return d.ensureTable(ctx)
}

// ensureTable builds the coefficient table on first use. Grid points are
// independent integrals, so they are computed in parallel across
// runtime.GOMAXPROCS(0) workers; each index is written exactly once,
// making the table bit-identical for any worker count.
func (d *Dynamic) ensureTable(ctx context.Context) error {
	d.tableMu.Lock()
	defer d.tableMu.Unlock()
	if d.tableReady.Load() {
		return nil
	}
	n := dynamicGridSize
	a := make([]float64, n+1)
	b := make([]float64, n+1)
	err := parallelForCtx(ctx, 1, n, func(i int) {
		budget := d.R * float64(i) / float64(n)
		a[i], b[i] = d.exactCoefficients(budget)
	})
	if err != nil {
		// Cancelled mid-build: drop the partial table so the next call
		// starts clean.
		return err
	}
	d.publishTable(a, b)
	return nil
}

// publishTable installs the samples a, b (which it takes ownership of)
// with the cells certified from them and the cells' guards, then flips
// tableReady. Callers hold tableMu. A built table and an installed copy
// of it go through here alike, so they decide bit-identically.
func (d *Dynamic) publishTable(a, b []float64) {
	d.tableA, d.tableB = a, b
	d.cells = d.certify(a, b)
	d.guards = make([]decisionGuard, len(d.cells))
	for j := range d.cells {
		d.guards[j] = cellGuard(&d.cells[j])
	}
	d.cellsPerUnit = dynamicGridSize / d.R
	// Store-release: publishes the writes above to lock-free readers in
	// ShouldCheckpointAt.
	d.tableReady.Store(true)
}

// certify fits the cubic cells to the samples a, b of A and B on the
// grid b_k = R*k/GridSize, with no further integrals. Cell j
// interpolates the four samples of its stencil, k = j-1..j+2 (shifted
// to 0..3 and N-3..N in the two edge cells), and bounds the error of
// each cubic by
//
//	e = kink * max|Δ⁴| + 2 * max tau_k
//
// where:
//   - max|Δ⁴| is the largest fourth difference y_k - 4y_k+1 + 6y_k+2 -
//     4y_k+3 + y_k+4 over the four five-point stencils nearest the
//     cell, k = j-3..j (shifted inward at the ends of the grid).
//   - kink = 3/8, and 1 in the two cells at either end of the grid, is
//     the largest ratio of the cubic's error to that max|Δ⁴| for a
//     function with one jump in its value or in any of its first three
//     derivatives anywhere in the stencils: truncated, uniform or
//     discrete laws put such kinks in A and B. On a smooth stretch
//     Δ⁴ = h⁴f⁽⁴⁾ and the ratio is the remainder constant max|ω|/24 =
//     3/128 (1/24 in the edge cells), so there kink carries a safety
//     factor of 16 (24).
//   - tau_k = max(1e-12, 1e-10*|v_k|) is the tolerance each sample's
//     integral was computed to (quad.KronrodBatch's absolute and
//     relative tolerance, v_k its value: B_k, and P(C <= b_k) - A_k for
//     A); the factor 2 bounds the stencil's Lebesgue constant (1.25
//     inside, 1.63 in the edge cells) with room for the tolerance of
//     an exact evaluation compared against the interpolant.
func (d *Dynamic) certify(a, b []float64) []coeffCell {
	n := dynamicGridSize
	tauA := make([]float64, n+1)
	tauB := make([]float64, n+1)
	for k := range tauA {
		sumP := d.ckptProb(d.R*float64(k)/float64(n)) - a[k]
		tauA[k] = quadTolerance(sumP)
		tauB[k] = quadTolerance(b[k])
	}
	d4A, d4B := fourthDiffs(a), fourthDiffs(b)
	cells := make([]coeffCell, n)
	for j := range cells {
		s := min(max(j-1, 0), n-3)
		off := j - s
		c := &cells[j]
		c.a = cubicCell(a[s:s+4], off)
		c.b = cubicCell(b[s:s+4], off)
		kink := 3.0 / 8
		if j < 2 || j >= n-2 {
			kink = 1
		}
		lo := min(max(j-3, 0), n-7)
		c.ea = kink*maxOf(d4A[lo:lo+4]) + 2*maxOf(tauA[s:s+4])
		c.eb = kink*maxOf(d4B[lo:lo+4]) + 2*maxOf(tauB[s:s+4])
	}
	return cells
}

// quadTolerance is the error allowance of a KronrodBatch integral of
// value v computed at (absTol, relTol) = (1e-12, 1e-10), as every
// coefficient sample is.
func quadTolerance(v float64) float64 {
	return math.Max(1e-12, 1e-10*math.Abs(v))
}

// cubicCell returns the power-basis coefficients, in the cell coordinate
// t, of the cubic through the four samples y at t = -off, 1-off, 2-off,
// 3-off. The cell's left sample y[off] sits at t = 0, so the constant
// term is that sample exactly.
func cubicCell(y []float64, off int) [4]float64 {
	c := [4]float64{y[off]}
	for p, m := range cubicBasis[off] {
		c[p+1] = m[0]*y[0] + m[1]*y[1] + m[2]*y[2] + m[3]*y[3]
	}
	return c
}

// cubicBasis[off][p-1][k] is the t^p coefficient, p = 1..3, of the k-th
// Lagrange basis polynomial on the nodes t = -off, 1-off, 2-off, 3-off.
var cubicBasis = [3][3][4]float64{
	{ // nodes 0, 1, 2, 3: the first cell
		{-11.0 / 6, 3, -1.5, 1.0 / 3},
		{1, -2.5, 2, -0.5},
		{-1.0 / 6, 0.5, -0.5, 1.0 / 6},
	},
	{ // nodes -1, 0, 1, 2: interior cells
		{-1.0 / 3, -0.5, 1, -1.0 / 6},
		{0.5, -1, 0.5, 0},
		{-1.0 / 6, 0.5, -0.5, 1.0 / 6},
	},
	{ // nodes -2, -1, 0, 1: the last cell
		{1.0 / 6, -1, 0.5, 1.0 / 3},
		{0, 0.5, -1, 0.5},
		{-1.0 / 6, 0.5, -0.5, 1.0 / 6},
	},
}

// fourthDiffs returns |Δ⁴y_k| for every five-point stencil k..k+4 of y.
func fourthDiffs(y []float64) []float64 {
	d := make([]float64, len(y)-4)
	for k := range d {
		d[k] = math.Abs(y[k] - 4*y[k+1] + 6*y[k+2] - 4*y[k+3] + y[k+4])
	}
	return d
}

// maxOf returns the largest of xs, or NaN if any is NaN, so a NaN sample
// leaves its cells no certified band and sends them to the exact rule.
func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m || math.IsNaN(x) {
			m = x
		}
	}
	return m
}

// exactCoefficients evaluates A(b) and B(b) by batched quadrature (or
// summation for discrete task laws).
func (d *Dynamic) exactCoefficients(budget float64) (a, b float64) {
	pc := d.ckptProb(budget)
	if d.TaskDisc != nil {
		// Batched like expectedContinue: the checkpoint CDF over all
		// feasible task counts comes from a single CDFBatch call.
		s := dynPool.Get().(*dynScratch)
		defer dynPool.Put(s)
		n := int(math.Floor(budget)) + 1
		s.grow(n)
		ws, cs := s.ws[:n], s.cs[:n]
		for j := range ws {
			ws[j] = budget - float64(j)
		}
		d.ckptB.CDFBatch(ws, cs)
		var sumP, sumXP float64
		for j := range ws {
			c := cs[j]
			if ws[j] <= 0 {
				c = 0
			}
			pj := d.TaskDisc.PMF(j)
			sumP += c * pj
			sumXP += float64(j) * c * pj
		}
		return pc - sumP, sumXP
	}
	s := dynPool.Get().(*dynScratch)
	defer dynPool.Put(s)
	// kernel fills cs/ps with P(C <= budget-x) and f_X(x) for a panel.
	kernel := func(xs []float64) (cs, ps []float64) {
		n := len(xs)
		s.grow(n)
		ws := s.ws[:n]
		cs, ps = s.cs[:n], s.ps[:n]
		for i, x := range xs {
			ws[i] = budget - x
		}
		d.ckptB.CDFBatch(ws, cs)
		d.taskB.PDFBatch(xs, ps)
		for i := range xs {
			if ws[i] <= 0 {
				cs[i] = 0
			}
		}
		return cs, ps
	}
	sumP := integrateBetweenKinks(func(xs, out []float64) {
		cs, ps := kernel(xs)
		for i := range xs {
			out[i] = cs[i] * ps[i]
		}
	}, budget, d.Task, d.Ckpt)
	sumXP := integrateBetweenKinks(func(xs, out []float64) {
		cs, ps := kernel(xs)
		for i, x := range xs {
			out[i] = x * cs[i] * ps[i]
		}
	}, budget, d.Task, d.Ckpt)
	return pc - sumP, sumXP
}

// CoeffTable is the immutable coefficient table of a Dynamic problem:
// A(budget) and B(budget) sampled on the uniform budget grid
// {R·i/GridSize}, i = 0..GridSize. It is the expensive part of the
// dynamic policy — everything ShouldCheckpointAt needs beyond the laws
// themselves — extracted as a value so it can be persisted, fingerprinted
// and re-installed (the advisor service content-addresses these tables).
type CoeffTable struct {
	R    float64
	A, B []float64 // both of length GridSize+1
}

// GridSize is the budget-grid resolution of the dynamic coefficient
// table (the number of cells; the table holds GridSize+1 samples).
const GridSize = dynamicGridSize

// Table returns a copy of the coefficient table, building it first if
// necessary (honoring ctx exactly like Prebuild). The returned slices
// are private copies: mutating them cannot perturb later decisions.
func (d *Dynamic) Table(ctx context.Context) (CoeffTable, error) {
	if err := d.ensureTable(ctx); err != nil {
		return CoeffTable{}, err
	}
	t := CoeffTable{
		R: d.R,
		A: make([]float64, len(d.tableA)),
		B: make([]float64, len(d.tableB)),
	}
	copy(t.A, d.tableA)
	copy(t.B, d.tableB)
	return t, nil
}

// InstallTable installs a previously extracted coefficient table,
// skipping the quadrature build entirely. The table must match this
// problem (same R, full grid); the caller is responsible for having
// extracted it from a Dynamic built over the same laws — with that,
// every ShouldCheckpointAt decision is bit-identical to one computed on
// the original instance, including the exact-integral fallback near the
// indifference line (which re-evaluates against the laws, not the
// table). Slices are copied, so the caller may keep mutating its own.
func (d *Dynamic) InstallTable(t CoeffTable) error {
	if t.R != d.R {
		return fmt.Errorf("core: coefficient table for R=%g cannot serve R=%g", t.R, d.R)
	}
	if len(t.A) != dynamicGridSize+1 || len(t.B) != dynamicGridSize+1 {
		return fmt.Errorf("core: coefficient table has %dx%d samples, want %d",
			len(t.A), len(t.B), dynamicGridSize+1)
	}
	d.tableMu.Lock()
	defer d.tableMu.Unlock()
	a := make([]float64, len(t.A))
	b := make([]float64, len(t.B))
	copy(a, t.A)
	copy(b, t.B)
	d.publishTable(a, b)
	return nil
}

// Intersection returns the smallest W_int in (0, R) at which
// E(W_C) - E(W_+1) changes sign from negative to positive: below W_int it
// is better to keep computing, above it to checkpoint. This is the value
// highlighted in Figures 8-10 of the paper.
func (d *Dynamic) Intersection() (float64, error) {
	diff := func(w float64) float64 {
		return d.ExpectedWorkCheckpoint(w) - d.ExpectedWorkContinue(w)
	}
	// Evaluate the scan grid in parallel, then locate the first sign
	// change in deterministic (ascending) order and polish it with Brent.
	const grid = 512
	ws := make([]float64, grid+1)
	vals := make([]float64, grid+1)
	ws[0] = 1e-9
	for i := 1; i <= grid; i++ {
		ws[i] = d.R * float64(i) / float64(grid+1)
	}
	parallelFor(0, grid, func(i int) { vals[i] = diff(ws[i]) })
	for i := 1; i <= grid; i++ {
		if vals[i-1] < 0 && vals[i] >= 0 {
			root, err := optimize.Brent(diff, ws[i-1], ws[i], 1e-10)
			if err != nil {
				return 0.5 * (ws[i-1] + ws[i]), nil
			}
			return root, nil
		}
	}
	return 0, ErrNoIntersection
}

// Curves samples E(W_C) and E(W_+1) at n+1 points of [0, R], the two
// series plotted in Figures 8-10.
func (d *Dynamic) Curves(n int) (ws, checkpoint, cont []float64) {
	if n < 1 {
		n = 1
	}
	ws = make([]float64, n+1)
	checkpoint = make([]float64, n+1)
	cont = make([]float64, n+1)
	parallelFor(0, n, func(i int) {
		w := d.R * float64(i) / float64(n)
		ws[i] = w
		checkpoint[i] = d.ExpectedWorkCheckpoint(w)
		cont[i] = d.ExpectedWorkContinue(w)
	})
	return ws, checkpoint, cont
}
