package specfun

import "math"

// Batch kernels.
//
// Every function here writes f(xs[i]) into out[i] for all i and produces
// results bit-identical to calling the scalar function per element; the
// conformance tests in batch_test.go enforce equality at 0 ulps. xs and
// out may be the same slice: each element of xs is read before the
// corresponding out element is written, and lockstep lanes operate on
// copies.
//
// The speedup comes from hoisting per-shape work — lnGamma(a) for the
// incomplete gamma — out of the per-point loop, and from running the
// gamma power-series inner loop four points at a time so the independent divide/multiply chains
// overlap in the pipeline. The lockstep lanes execute exactly the scalar
// operation sequence per lane (including the del *= x/ap division and
// the per-lane termination test), which is what keeps them bit-identical.

// NormPDFBatch writes the standard Normal density at each xs[i] into
// out[i].
func NormPDFBatch(xs, out []float64) {
	for i, x := range xs {
		out[i] = invSqrt2Pi * math.Exp(-0.5*x*x)
	}
}

// NormCDFBatch writes Phi(xs[i]) into out[i].
func NormCDFBatch(xs, out []float64) {
	for i, x := range xs {
		out[i] = 0.5 * math.Erfc(-x*invSqrt2)
	}
}

// seriesLanes is the lockstep width of the gamma power-series kernel.
// Four independent del *= x/ap chains are enough to cover the divider
// latency on current cores; wider would spill the lane state.
const seriesLanes = 4

// GammaIncPBatch writes P(a, xs[i]) into out[i]. lnGamma(a) is computed
// once; points on the continued-fraction branch (x >= a+1) and special
// cases are resolved as they are scanned, and series-branch points
// accumulate into lanes that run in lockstep once a group fills (or at
// end of input).
func GammaIncPBatch(a float64, xs, out []float64) {
	if math.IsNaN(a) || a <= 0 {
		for i := range xs {
			out[i] = math.NaN()
		}
		return
	}
	lg, _ := math.Lgamma(a)
	var lane [seriesLanes]int
	var lx [seriesLanes]float64
	k := 0
	flush := func() {
		if k == 0 {
			return
		}
		var sums [seriesLanes]float64
		if k == 1 {
			sums[0] = gammaPSeriesSum(a, lx[0])
		} else {
			gammaPSeriesSumLanes(a, &lx, &sums, k)
		}
		for j := 0; j < k; j++ {
			x := lx[j]
			out[lane[j]] = Clamp01(sums[j] * math.Exp(a*math.Log(x)-x-lg))
		}
		k = 0
	}
	for i, x := range xs {
		switch {
		case math.IsNaN(x) || x < 0:
			out[i] = math.NaN()
		case x == 0:
			out[i] = 0
		case math.IsInf(x, 1):
			out[i] = 1
		case x >= a+1:
			out[i] = 1 - Clamp01(gammaQCF(a, x)*math.Exp(a*math.Log(x)-x-lg))
		default:
			lane[k] = i
			lx[k] = x
			k++
			if k == seriesLanes {
				flush()
			}
		}
	}
	flush()
}

// gammaPSeriesSumLanes runs k (2..seriesLanes) power-series sums in
// lockstep. Each lane follows exactly the scalar gammaPSeriesSum
// operation sequence — same division by ap, same termination test
// applied per lane, lanes freezing independently — so every sums[j] is
// bit-identical to gammaPSeriesSum(a, lx[j]).
func gammaPSeriesSumLanes(a float64, lx *[seriesLanes]float64, sums *[seriesLanes]float64, k int) {
	first := 1.0 / a
	var del [seriesLanes]float64
	var done [seriesLanes]bool
	for j := 0; j < k; j++ {
		sums[j] = first
		del[j] = first
	}
	for j := k; j < seriesLanes; j++ {
		done[j] = true
	}
	live := k
	ap := a
	for i := 0; i < maxIncGammaIter && live > 0; i++ {
		ap++
		for j := 0; j < seriesLanes; j++ {
			if done[j] {
				continue
			}
			del[j] *= lx[j] / ap
			sums[j] += del[j]
			if math.Abs(del[j]) < math.Abs(sums[j])*1e-17 {
				done[j] = true
				live--
			}
		}
	}
}
