package quad

import (
	"math"
	"sync"
)

// BatchFunc evaluates an integrand at every point of xs, writing f(xs[i])
// into out[i]. len(out) == len(xs) always holds; implementations must not
// retain either slice past the call. Batched integrands let distribution
// laws amortize per-point setup (truncation constants, log-normalizers)
// across all nodes of a quadrature panel, and let the adaptive driver run
// without per-panel allocations.
type BatchFunc func(xs, out []float64)

// Gauss–Kronrod 7-15 pair: 15 Kronrod nodes on [-1, 1] (symmetric), the
// odd-indexed ones being the embedded 7-point Gauss rule. Constants from
// the QUADPACK dqk15 tables.
var (
	gk15Nodes = [8]float64{
		0.991455371120812639206854697526329,
		0.949107912342758524526189684047851,
		0.864864423359769072789712788640926,
		0.741531185599394439863864773280788,
		0.586087235467691130294144838258730,
		0.405845151377397166906606412076961,
		0.207784955007898467600689403773245,
		0.000000000000000000000000000000000,
	}
	gk15WeightsK = [8]float64{
		0.022935322010529224963732008058970,
		0.063092092629978553290700663189204,
		0.104790010322250183839876322541518,
		0.140653259715525918745189590510238,
		0.169004726639267902826583426598550,
		0.190350578064785409913256402421014,
		0.204432940075298892414161999234649,
		0.209482141084727828012999174891714,
	}
	gk7WeightsG = [4]float64{
		0.129484966168869693270611432679082,
		0.279705391489276667901467771423780,
		0.381830050505118944950369775488975,
		0.417959183673469387755102040816327,
	}
)

// kronrodWS is the reusable state of one adaptive Kronrod integration:
// the 15-node position/value buffers handed to the batched integrand and
// the panel heap backing array. Pooled so steady-state integration
// allocates nothing.
type kronrodWS struct {
	xs   [15]float64
	fv   [15]float64
	heap []panel
}

// initialKronrodPanels is the heap capacity of a fresh workspace. The
// heap grows by append up to maxKronrodPanels and the pooled workspace
// keeps what it grew. Sizing a fresh one for the cap instead would
// cost 74 KB each time sync.Pool drops its idle workspaces (after two
// garbage collections), and most integrations never leave the seed
// panels.
const initialKronrodPanels = 16

var kronrodPool = sync.Pool{
	New: func() interface{} {
		return &kronrodWS{heap: make([]panel, 0, initialKronrodPanels)}
	},
}

// gk15BatchCounted applies the 7-15 pair to f on [a, b] with one
// batched call covering all 15 nodes. It returns the Kronrod estimate,
// an error estimate following the QUADPACK heuristic, and how many node
// values were non-finite and sanitized to 0.
func gk15BatchCounted(f BatchFunc, a, b float64, ws *kronrodWS) (value, errEst float64, bad int) {
	mid := 0.5 * (a + b)
	half := 0.5 * (b - a)
	for i, x := range gk15Nodes {
		ws.xs[i] = mid - half*x
		if i < 7 {
			ws.xs[14-i] = mid + half*x
		}
	}
	f(ws.xs[:], ws.fv[:])
	return gk15FromValues(&ws.fv, half)
}

// gk15FromValues computes the Kronrod/Gauss estimates and the QUADPACK
// error heuristic from the 15 node values (non-finite values treated as
// 0 and counted in bad).
func gk15FromValues(fv *[15]float64, half float64) (value, errEst float64, bad int) {
	for i, v := range fv {
		if math.IsNaN(v) {
			fv[i] = 0
			bad++
		}
	}

	var kron, gauss float64
	for i := 0; i < 7; i++ {
		kron += gk15WeightsK[i] * (fv[i] + fv[14-i])
	}
	kron += gk15WeightsK[7] * fv[7]
	// Gauss nodes are the odd Kronrod indices 1,3,5 plus the center.
	for j, i := range [3]int{1, 3, 5} {
		gauss += gk7WeightsG[j] * (fv[i] + fv[14-i])
	}
	gauss += gk7WeightsG[3] * fv[7]

	// QUADPACK-style error estimate, computed on the unscaled sums.
	meanK := kron / 2
	var resAbs, resAsc float64
	for i := 0; i < 15; i++ {
		w := gk15WeightsK[min(i, 14-i)]
		resAbs += w * math.Abs(fv[i])
		resAsc += w * math.Abs(fv[i]-meanK)
	}
	resAbs *= half
	resAsc *= half
	errEst = math.Abs(kron-gauss) * half
	kron *= half
	if resAsc != 0 && errEst != 0 {
		errEst = resAsc * math.Min(1, math.Pow(200*errEst/resAsc, 1.5))
	}
	if resAbs > 1e-290 {
		errEst = math.Max(errEst, 50*2.22e-16*resAbs)
	}
	return kron, errEst, bad
}

// panel is one subinterval in the adaptive subdivision queue.
type panel struct {
	a, b   float64
	value  float64
	errEst float64
}

// The panel queue is a hand-rolled max-heap on errEst: container/heap
// would box every panel through interface{} and allocate on each push,
// defeating the pooled workspace.

func heapInit(h []panel) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		heapSiftDown(h, i)
	}
}

func heapSiftDown(h []panel, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && h[r].errEst > h[l].errEst {
			big = r
		}
		if h[i].errEst >= h[big].errEst {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func heapSiftUp(h []panel, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].errEst >= h[i].errEst {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// maxKronrodPanels caps the subdivision effort; the library's integrands
// converge in well under a hundred panels.
const maxKronrodPanels = 2048

// Kronrod integrates f over the finite interval [a, b] with globally
// adaptive Gauss–Kronrod (G7, K15) subdivision until the summed error
// estimate falls below max(absTol, relTol*|integral|). Non-positive
// tolerances default to 1e-12 absolute / 1e-10 relative.
//
// The scalar integrand is adapted onto the batched driver; callers on a
// hot path should implement BatchFunc directly and use KronrodBatch.
func Kronrod(f func(float64) float64, a, b, absTol, relTol float64) Result {
	return KronrodBatch(func(xs, out []float64) {
		for i, x := range xs {
			out[i] = f(x)
		}
	}, a, b, absTol, relTol)
}

// KronrodBatch is Kronrod for a batched integrand: each adaptive panel
// costs exactly one call of f covering all 15 Kronrod nodes, and the
// driver reuses a pooled workspace so steady-state integration performs
// zero heap allocations.
func KronrodBatch(f BatchFunc, a, b, absTol, relTol float64) Result {
	if absTol <= 0 {
		absTol = 1e-12
	}
	if relTol <= 0 {
		relTol = 1e-10
	}
	if a == b {
		return Result{Converged: true}
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}

	ws := kronrodPool.Get().(*kronrodWS)
	h := ws.heap[:0]
	n, bad := 0, 0

	// Seed with several panels rather than one: a feature much narrower
	// than the first panel's node spacing would otherwise be invisible to
	// the error estimate and never trigger subdivision.
	const seedPanels = 10
	var total, totalErr float64
	for i := 0; i < seedPanels; i++ {
		pa := a + (b-a)*float64(i)/seedPanels
		pb := a + (b-a)*float64(i+1)/seedPanels
		v, e, nb := gk15BatchCounted(f, pa, pb, ws)
		n += 15
		bad += nb
		h = append(h, panel{a: pa, b: pb, value: v, errEst: e})
		total += v
		totalErr += e
	}
	heapInit(h)

	converged := false
	for len(h) < maxKronrodPanels {
		if totalErr <= math.Max(absTol, relTol*math.Abs(total)) {
			converged = true
			break
		}
		worst := h[0]
		m := 0.5 * (worst.a + worst.b)
		if m == worst.a || m == worst.b {
			// Interval exhausted at machine precision; stop refining.
			break
		}
		lv, le, lb := gk15BatchCounted(f, worst.a, m, ws)
		rv, re, rb := gk15BatchCounted(f, m, worst.b, ws)
		n += 30
		bad += lb + rb
		total += lv + rv - worst.value
		totalErr += le + re - worst.errEst
		h[0] = panel{worst.a, m, lv, le}
		heapSiftDown(h, 0)
		h = append(h, panel{m, worst.b, rv, re})
		heapSiftUp(h, len(h)-1)
	}

	if !converged {
		// The loop can also exit because the subdivision budget or
		// machine precision was exhausted; re-check the tolerance so a
		// last refinement that landed below it still counts.
		converged = totalErr <= math.Max(absTol, relTol*math.Abs(total))
	}
	ws.heap = h[:0]
	kronrodPool.Put(ws)
	countEvals(n)
	return Result{Value: sign * total, AbsErr: totalErr, NumEvals: n, BadEvals: bad, Converged: converged}
}
