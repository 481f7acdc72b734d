package dist

import (
	"math"
	"testing"
	"testing/quick"

	"reskit/internal/quad"
	"reskit/internal/rng"
)

// checkContinuous runs the generic conformance suite every continuous law
// must pass: density nonnegativity and normalization, CDF monotonicity
// and limits, quantile/CDF round trips, moment agreement with numerical
// integration, and sample-moment agreement with analytical moments.
func checkContinuous(t *testing.T, d Continuous) {
	t.Helper()
	lo, hi := d.Support()

	// Integration window: clip infinite support using quantiles.
	wLo, wHi := lo, hi
	if math.IsInf(wLo, -1) {
		wLo = d.Quantile(1e-12)
	}
	if math.IsInf(wHi, 1) {
		wHi = d.Quantile(1 - 1e-12)
	}

	// PDF >= 0 and normalization.
	for i := 0; i <= 50; i++ {
		x := wLo + (wHi-wLo)*float64(i)/50
		if p := d.PDF(x); p < 0 || math.IsNaN(p) {
			t.Fatalf("%v: PDF(%g) = %g", d, x, p)
		}
	}
	mass := quad.Kronrod(d.PDF, wLo, wHi, 1e-11, 1e-9).Value
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("%v: PDF mass = %.9g", d, mass)
	}

	// PDF outside support is zero.
	if lo > math.Inf(-1) && d.PDF(lo-1) != 0 {
		t.Errorf("%v: PDF below support nonzero", d)
	}
	if !math.IsInf(hi, 1) && d.PDF(hi+1) != 0 {
		t.Errorf("%v: PDF above support nonzero", d)
	}

	// CDF limits and monotonicity.
	if c := d.CDF(wLo - 1e9); c > 1e-9 {
		t.Errorf("%v: CDF far left = %g", d, c)
	}
	if c := d.CDF(wHi + 1e9); c < 1-1e-9 {
		t.Errorf("%v: CDF far right = %g", d, c)
	}
	prev := -1.0
	for i := 0; i <= 100; i++ {
		x := wLo + (wHi-wLo)*float64(i)/100
		c := d.CDF(x)
		if c < prev-1e-12 || c < 0 || c > 1 {
			t.Fatalf("%v: CDF not monotone/bounded at %g: %g after %g", d, x, c, prev)
		}
		prev = c
	}

	// LogPDF consistency.
	for i := 1; i < 50; i++ {
		x := wLo + (wHi-wLo)*float64(i)/50
		p := d.PDF(x)
		if p > 0 {
			if math.Abs(d.LogPDF(x)-math.Log(p)) > 1e-9*(1+math.Abs(math.Log(p))) {
				t.Fatalf("%v: LogPDF(%g) inconsistent", d, x)
			}
		}
	}

	// Quantile/CDF round trip.
	for _, p := range []float64{0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
		x := d.Quantile(p)
		back := d.CDF(x)
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("%v: CDF(Quantile(%g)) = %g", d, p, back)
		}
	}

	// Moments vs numerical integration.
	m1 := quad.Kronrod(func(x float64) float64 { return x * d.PDF(x) }, wLo, wHi, 1e-11, 1e-9).Value
	if math.Abs(m1-d.Mean()) > 1e-5*(1+math.Abs(d.Mean())) {
		t.Errorf("%v: Mean() = %g, integral = %g", d, d.Mean(), m1)
	}
	m2 := quad.Kronrod(func(x float64) float64 { return x * x * d.PDF(x) }, wLo, wHi, 1e-11, 1e-9).Value
	v := m2 - m1*m1
	if math.Abs(v-d.Variance()) > 1e-4*(1+d.Variance()) {
		t.Errorf("%v: Variance() = %g, integral = %g", d, d.Variance(), v)
	}

	// Sampling: moments and support.
	r := rng.New(12345)
	const n = 120000
	var sm, sm2 float64
	for i := 1; i <= n; i++ {
		x := d.Sample(r)
		if x < lo-1e-9 || x > hi+1e-9 {
			t.Fatalf("%v: sample %g outside support [%g, %g]", d, x, lo, hi)
		}
		delta := x - sm
		sm += delta / float64(i)
		sm2 += delta * (x - sm)
	}
	sv := sm2 / float64(n-1)
	sd := math.Sqrt(d.Variance())
	if math.Abs(sm-d.Mean()) > 5*sd/math.Sqrt(n)+1e-9 {
		t.Errorf("%v: sample mean %g vs %g", d, sm, d.Mean())
	}
	if d.Variance() > 0 && math.Abs(sv-d.Variance()) > 0.08*d.Variance()+1e-9 {
		t.Errorf("%v: sample variance %g vs %g", d, sv, d.Variance())
	}

	// Batched evaluation must agree with the scalar path.
	checkBatchAgreement(t, d)
}

// ulpClose reports whether a and b agree to 1-ulp scale (a few units in
// the last place, or both non-finite the same way).
func ulpClose(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= 4e-16*math.Max(math.Abs(a), math.Abs(b))+1e-300
}

// checkBatchAgreement asserts that the law's batched PDF/CDF path (native
// or adapter, via AsBatch) matches the scalar methods at probe points
// inside, below, and above the support.
func checkBatchAgreement(t *testing.T, d Continuous) {
	t.Helper()
	b := AsBatch(d)
	lo, hi := d.Support()
	wLo, wHi := lo, hi
	if math.IsInf(wLo, -1) {
		wLo = d.Quantile(1e-12)
	}
	if math.IsInf(wHi, 1) {
		wHi = d.Quantile(1 - 1e-12)
	}
	const n = 257
	span := wHi - wLo
	xs := make([]float64, n)
	pdf := make([]float64, n)
	cdf := make([]float64, n)
	for i := range xs {
		xs[i] = wLo - 0.1*span + 1.2*span*float64(i)/(n-1)
	}
	b.PDFBatch(xs, pdf)
	b.CDFBatch(xs, cdf)
	for i, x := range xs {
		if want := d.PDF(x); !ulpClose(pdf[i], want) {
			t.Errorf("%v: PDFBatch(%g) = %g, scalar PDF = %g", d, x, pdf[i], want)
		}
		if want := d.CDF(x); !ulpClose(cdf[i], want) {
			t.Errorf("%v: CDFBatch(%g) = %g, scalar CDF = %g", d, x, cdf[i], want)
		}
	}
}

// TestBatchFallbackPaths covers the branches the main conformance list
// misses: the generic scalar adapter for a law with no native batch
// methods, and a Truncated law whose base is not batch-capable.
func TestBatchFallbackPaths(t *testing.T) {
	for _, d := range []Continuous{
		NewWeibull(1.5, 2),                  // AsBatch adapter
		Truncate(NewWeibull(1.5, 2), .5, 4), // Truncated scalar-fallback branch
		NewUniform(-1, 3),
	} {
		checkBatchAgreement(t, d)
	}
	// AsBatch must return native implementers unwrapped.
	n := NewNormal(0, 1)
	if _, ok := AsBatch(n).(Normal); !ok {
		t.Errorf("AsBatch(Normal) wrapped a native batch implementation")
	}
}

func TestConformanceAllLaws(t *testing.T) {
	laws := []Continuous{
		NewUniform(1, 7.5),
		NewUniform(-3, 2),
		NewExponential(0.5),
		NewExponential(4),
		NewNormal(0, 1),
		NewNormal(3, 0.5),
		NewNormal(-10, 4),
		NewLogNormal(0, 0.25),
		NewLogNormal(1, 0.5),
		NewGamma(1, 0.5),
		NewGamma(2.5, 2),
		NewGamma(9, 0.25),
		NewWeibull(1.5, 2),
		NewWeibull(0.9, 1),
		Truncate(NewNormal(3.5, 1), 1, 6),
		Truncate(NewNormal(5, 0.4), 0, math.Inf(1)),
		Truncate(NewExponential(0.5), 1, 5),
		Truncate(NewLogNormal(1, 0.5), 1, 6),
		Truncate(NewGamma(2, 1), 0.5, 8),
		Truncate(NewBeta(2, 5), 0.1, 0.9),
	}
	for _, d := range laws {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			checkContinuous(t, d)
		})
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	laws := []Continuous{
		NewNormal(2, 3),
		NewGamma(2, 1),
		Truncate(NewNormal(5, 0.4), 0, math.Inf(1)),
		NewLogNormal(0.5, 0.7),
	}
	for _, d := range laws {
		d := d
		prop := func(u1, u2 float64) bool {
			p1 := math.Abs(math.Mod(u1, 1))
			p2 := math.Abs(math.Mod(u2, 1))
			lo, hi := math.Min(p1, p2), math.Max(p1, p2)
			return d.Quantile(lo) <= d.Quantile(hi)+1e-12
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}
