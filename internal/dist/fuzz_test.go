package dist

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"reskit/internal/rng"
)

// FuzzTruncate checks that TryTruncate never panics for any bound pair
// on any (possibly invalid) Normal, Gamma or Beta base law (base selects
// which, modulo 3), and that every successfully constructed truncation
// behaves like a probability law on its support. For Gamma and Beta
// bases it also checks the inversion-table build: bounded work, and a
// u-error of at most invEps at probe draws whenever a table is built.
func FuzzTruncate(f *testing.F) {
	f.Add(uint8(0), 3.0, 0.5, 0.0, math.Inf(1))
	f.Add(uint8(0), 5.0, 0.4, 3.0, 7.0)
	f.Add(uint8(0), 0.0, 1.0, -1.0, 1.0)
	f.Add(uint8(0), 0.0, 1.0, 1.0, 1.0)           // empty interval
	f.Add(uint8(0), 0.0, 1.0, 5.0, -5.0)          // inverted bounds
	f.Add(uint8(0), 0.0, 1.0, math.NaN(), 1.0)    // NaN bound
	f.Add(uint8(0), 0.0, 0.0, 0.0, 1.0)           // invalid sigma
	f.Add(uint8(0), 0.0, 1.0, 1e308, math.Inf(1)) // zero mass in the far tail
	f.Add(uint8(0), math.Inf(1), 1.0, 0.0, 1.0)   // invalid mu
	f.Add(uint8(1), 6.0, 0.5, 0.0, math.Inf(1))   // the benchmark's task law
	f.Add(uint8(1), 2.0, 1.0, 12.0, math.Inf(1))  // declines: CDF noise over a mass of 8e-5
	f.Add(uint8(1), 0.5, 1.0, 0.0, math.Inf(1))   // density singular at 0
	f.Add(uint8(1), 1e-3, 1.0, 0.0, math.Inf(1))  // the doubles make an atom at 0
	f.Add(uint8(2), 0.5, 0.5, 0.0, 1.0)           // singular at both ends
	f.Add(uint8(2), 2.0, 5.0, 0.1, 0.9)
	f.Add(uint8(2), 0.2, 3.0, 0.0, 1.0) // x ~ u^5 at 0

	f.Fuzz(func(t *testing.T, base uint8, p1, p2, lo, hi float64) {
		law, err := func() (d Continuous, err error) {
			defer catch(&err)
			switch base % 3 {
			case 0:
				return NewNormal(p1, p2), nil
			case 1:
				return NewGamma(p1, p2), nil
			}
			return NewBeta(p1, p2), nil
		}()
		if err != nil {
			return
		}
		tr, err := TryTruncate(law, lo, hi)
		var rerr runtime.Error
		if errors.As(err, &rerr) {
			t.Fatalf("Truncate(%v, %g, %g) panicked: %v", law, lo, hi, err)
		}
		if err != nil {
			return
		}
		if tr.CDF(lo) != 0 {
			t.Fatalf("CDF(lo=%g) = %g, want 0", lo, tr.CDF(lo))
		}
		if !math.IsInf(hi, 1) && tr.CDF(hi) != 1 {
			t.Fatalf("CDF(hi=%g) = %g, want 1", hi, tr.CDF(hi))
		}
		mid := tr.Quantile(0.5)
		if math.IsNaN(mid) {
			t.Fatalf("Quantile(0.5) is NaN for %v", tr)
		}
		if mid < lo || mid > hi {
			t.Fatalf("median %g outside [%g, %g]", mid, lo, hi)
		}
		r := rng.New(1)
		for i := 0; i < 8; i++ {
			if x := tr.Sample(r); x < lo || x > hi {
				t.Fatalf("sample %g outside [%g, %g]", x, lo, hi)
			}
		}

		if base%3 == 0 {
			return // closed-form quantile: no table
		}
		// The build reads the CDF a bounded number of times: the ends
		// of the range, then at most invMaxAttempts cell fits. A shadow
		// of tr over a counting base repeats it.
		counted := &countingLaw{Continuous: law}
		shadow := &Truncated{Base: counted, Lo: tr.Lo, Hi: tr.Hi, fLo: tr.fLo, fHi: tr.fHi, mass: tr.mass}
		if tb := buildInvTable(shadow); (tb == nil) != (tr.inv == nil) {
			t.Fatalf("%v: the shadow build disagrees with the build", tr)
		}
		const ends = 2 * len(invTails) * (64 + 2)
		if limit := ends + 1 + invMaxAttempts*2*invOrder; counted.n > limit {
			t.Fatalf("%v: the build read the CDF %d times, bound %d", tr, counted.n, limit)
		}
		tb := tr.inv
		if tb == nil {
			return
		}
		if n := len(tb.cells) - 1; n < 1 || n > invMaxCells {
			t.Fatalf("%v: %d cells", tr, n)
		}
		for i := 0; i < 64; i++ {
			u := tb.uMin + (tb.uMax-tb.uMin)*r.Float64()
			x := tb.quantile(u)
			if x < lo || x > hi {
				t.Fatalf("%v: Q̂(%g) = %g outside [%g, %g]", tr, u, x, lo, hi)
			}
			if e := math.Abs(tr.CDF(x) - u); !(e <= invEps) {
				t.Fatalf("%v: u-error %g at u=%.17g exceeds %g", tr, e, u, invEps)
			}
		}
	})
}

// countingLaw counts the CDF evaluations of the law it wraps.
type countingLaw struct {
	Continuous
	n int
}

func (c *countingLaw) CDF(x float64) float64 {
	c.n++
	return c.Continuous.CDF(x)
}

// FuzzTryEmpirical checks the recover-based constructor against
// arbitrary 4-observation samples.
func FuzzTryEmpirical(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.NaN(), 1.0, 2.0, 3.0)
	f.Add(math.Inf(1), 1.0, 2.0, 3.0)
	f.Add(-1e308, 1e308, 0.0, 0.0)

	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		e, err := TryNewEmpirical([]float64{a, b, c, d})
		if err != nil {
			return
		}
		lo, hi := e.Support()
		if math.IsNaN(e.Mean()) || e.Mean() < lo || e.Mean() > hi {
			t.Fatalf("mean %g outside support [%g, %g]", e.Mean(), lo, hi)
		}
		if q := e.Quantile(0.5); q < lo || q > hi {
			t.Fatalf("median %g outside support [%g, %g]", q, lo, hi)
		}
	})
}
