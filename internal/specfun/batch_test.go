package specfun

import (
	"math"
	"testing"
)

// sameBits reports whether two float64s are identical at the bit level,
// treating every NaN payload as equal. The batch kernels promise results
// bit-identical to the scalar functions — stricter than the 1-ulp
// contract of dist.BatchContinuous — so the tests compare raw bits.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// batchEdgeXs are the awkward inputs every batch kernel must route
// through the same special cases as its scalar reference: NaN, both
// infinities, zero, subnormals, and magnitudes near both ends of the
// exponent range.
var batchEdgeXs = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	5e-324, 1e-310, 2.2250738585072014e-308, // subnormals and DBL_MIN
	1e-17, 0.5, 1, 2, 100, 745, 1e5, 1e308,
	-5e-324, -1, -1e308,
}

// denseGrid returns n points spanning [lo, hi] inclusive.
func denseGrid(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return xs
}

func TestNormBatchMatchesScalarBitwise(t *testing.T) {
	xs := append(denseGrid(-40, 40, 4001), batchEdgeXs...)
	pdf := make([]float64, len(xs))
	cdf := make([]float64, len(xs))
	NormPDFBatch(xs, pdf)
	NormCDFBatch(xs, cdf)
	for i, x := range xs {
		if want := NormPDF(x); !sameBits(pdf[i], want) {
			t.Errorf("NormPDFBatch(%g) = %x, scalar %x", x, pdf[i], want)
		}
		if want := NormCDF(x); !sameBits(cdf[i], want) {
			t.Errorf("NormCDFBatch(%g) = %x, scalar %x", x, cdf[i], want)
		}
	}
}

func TestGammaIncBatchMatchesScalarBitwise(t *testing.T) {
	shapes := []float64{0.03, 0.5, 1, 2, 2.5, 7, 30.5, 123.4, 1e4}
	for _, a := range shapes {
		// Grid straddling the series/continued-fraction switch at a+1,
		// plus the edge panel; interleaved ordering exercises lane
		// grouping with partial flushes between CF-branch points.
		xs := append(denseGrid(1e-9, 4*(a+2), 2003), batchEdgeXs...)
		outP := make([]float64, len(xs))
		GammaIncPBatch(a, xs, outP)
		for i, x := range xs {
			if want := GammaIncP(a, x); !sameBits(outP[i], want) {
				t.Errorf("GammaIncPBatch(%g, %g) = %x, scalar %x", a, x, outP[i], want)
			}
		}
	}
	// Invalid shapes must poison the whole output.
	for _, a := range []float64{math.NaN(), 0, -1} {
		xs := []float64{0.5, 1, 2}
		out := make([]float64, len(xs))
		GammaIncPBatch(a, xs, out)
		for i, v := range out {
			if !math.IsNaN(v) {
				t.Errorf("GammaIncPBatch(a=%g) out[%d] = %g, want NaN", a, i, v)
			}
		}
	}
}

// TestGammaIncBatchAliasing verifies the documented xs == out contract.
func TestGammaIncBatchAliasing(t *testing.T) {
	xs := denseGrid(0.01, 12, 257)
	want := make([]float64, len(xs))
	GammaIncPBatch(2.5, xs, want)
	buf := append([]float64(nil), xs...)
	GammaIncPBatch(2.5, buf, buf)
	for i := range buf {
		if !sameBits(buf[i], want[i]) {
			t.Fatalf("aliased GammaIncPBatch diverges at %d: %x vs %x", i, buf[i], want[i])
		}
	}
	buf = append([]float64(nil), xs...)
	NormCDFBatch(buf, buf)
	for i, x := range xs {
		if !sameBits(buf[i], NormCDF(x)) {
			t.Fatalf("aliased NormCDFBatch diverges at %d", i)
		}
	}
}

// TestGammaIncBatchClosedForms pins the batch kernel against closed
// forms: P(1,x) = 1-e^{-x}, P(2,x) = 1-(1+x)e^{-x}, P(1/2,x) =
// erf(sqrt(x)). Tolerances, not bits — the closed forms round
// differently.
func TestGammaIncBatchClosedForms(t *testing.T) {
	xs := denseGrid(1e-6, 30, 501)
	out := make([]float64, len(xs))
	check := func(a float64, f func(x float64) float64) {
		GammaIncPBatch(a, xs, out)
		for i, x := range xs {
			want := f(x)
			if diff := math.Abs(out[i] - want); diff > 1e-13 {
				t.Errorf("GammaIncPBatch(%g, %g) = %.17g, closed form %.17g", a, x, out[i], want)
			}
		}
	}
	check(1, func(x float64) float64 { return -math.Expm1(-x) })
	check(2, func(x float64) float64 { return 1 - (1+x)*math.Exp(-x) })
	check(0.5, func(x float64) float64 { return math.Erf(math.Sqrt(x)) })
}

// TestGammaIncPInvRoundTripAfterFusion guards the fused Newton loop in
// GammaIncPInv: P(a, P^{-1}(a, p)) must round-trip to p well inside the
// solver tolerance across shapes on both sides of the series/CF switch.
func TestGammaIncPInvRoundTripAfterFusion(t *testing.T) {
	for _, a := range []float64{0.05, 0.5, 1, 2, 7.5, 42, 1234.5} {
		for _, p := range []float64{1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 1 - 1e-9} {
			x := GammaIncPInv(a, p)
			if !(x > 0) || math.IsInf(x, 1) {
				t.Fatalf("GammaIncPInv(%g, %g) = %g", a, p, x)
			}
			back := GammaIncP(a, x)
			// The solver converges x to 1e-14*(1+x), so the residual in
			// p-space scales with the density at the root; for small a
			// the density blows up like x^{a-1} near 0.
			lg, _ := math.Lgamma(a)
			pdf := math.Exp((a-1)*math.Log(x) - x - lg)
			tol := 1e-12 + 4e-14*(1+x)*pdf
			if math.Abs(back-p) > tol {
				t.Errorf("round trip a=%g p=%g: got %g (x=%g, tol %g)", a, p, back, x, tol)
			}
		}
	}
}
