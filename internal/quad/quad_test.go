package quad

import (
	"math"
	"testing"
	"testing/quick"
)

type integral struct {
	name string
	f    func(float64) float64
	a, b float64
	want float64
}

func standardIntegrals() []integral {
	return []integral{
		{"x^2 on [0,1]", func(x float64) float64 { return x * x }, 0, 1, 1.0 / 3},
		{"sin on [0,pi]", math.Sin, 0, math.Pi, 2},
		{"exp on [0,1]", math.Exp, 0, 1, math.E - 1},
		{"1/(1+x^2) on [-1,1]", func(x float64) float64 { return 1 / (1 + x*x) }, -1, 1, math.Pi / 2},
		{"gaussian on [-8,8]", func(x float64) float64 {
			return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
		}, -8, 8, 0.9999999999999988},
		{"sqrt on [0,4]", math.Sqrt, 0, 4, 16.0 / 3},
		{"x*exp(-x) on [0,20]", func(x float64) float64 { return x * math.Exp(-x) }, 0, 20,
			1 - 21*math.Exp(-20)},
	}
}

func TestSimpsonStandardIntegrals(t *testing.T) {
	for _, in := range standardIntegrals() {
		r := Simpson(in.f, in.a, in.b, 1e-12)
		if math.Abs(r.Value-in.want) > 1e-9*(1+math.Abs(in.want)) {
			t.Errorf("%s: got %.15g want %.15g (err est %g)", in.name, r.Value, in.want, r.AbsErr)
		}
	}
}

func TestKronrodStandardIntegrals(t *testing.T) {
	for _, in := range standardIntegrals() {
		r := Kronrod(in.f, in.a, in.b, 1e-13, 1e-12)
		if math.Abs(r.Value-in.want) > 1e-10*(1+math.Abs(in.want)) {
			t.Errorf("%s: got %.15g want %.15g (err est %g)", in.name, r.Value, in.want, r.AbsErr)
		}
	}
}

func TestReversedAndDegenerateLimits(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r := Simpson(f, 2, 2, 1e-10); r.Value != 0 {
		t.Errorf("degenerate Simpson: %g", r.Value)
	}
	if r := Kronrod(f, 3, 3, 0, 0); r.Value != 0 {
		t.Errorf("degenerate Kronrod: %g", r.Value)
	}
	fw := Kronrod(f, 0, 1, 0, 0).Value
	bw := Kronrod(f, 1, 0, 0, 0).Value
	if math.Abs(fw+bw) > 1e-14 {
		t.Errorf("reversed limits: %g vs %g", fw, bw)
	}
}

func TestSimpsonMatchesKronrodProperty(t *testing.T) {
	// Random smooth integrands: a*sin(bx) + c*x^2 over random intervals.
	f := func(ua, ub, uc, ulo, uhi float64) bool {
		a := math.Mod(ua, 3)
		b := math.Mod(ub, 3)
		c := math.Mod(uc, 3)
		lo := math.Mod(ulo, 5)
		hi := lo + math.Abs(math.Mod(uhi, 5))
		g := func(x float64) float64 { return a*math.Sin(b*x) + c*x*x }
		s := Simpson(g, lo, hi, 1e-11).Value
		k := Kronrod(g, lo, hi, 1e-12, 1e-11).Value
		return math.Abs(s-k) <= 1e-7*(1+math.Abs(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSemiInfinite(t *testing.T) {
	// Integral of e^{-x} over [0,inf) = 1.
	r := SemiInfinite(func(x float64) float64 { return math.Exp(-x) }, 0, 1e-12, 1e-11)
	if math.Abs(r.Value-1) > 1e-9 {
		t.Errorf("int e^-x: got %.15g", r.Value)
	}
	// Integral of x e^{-x} over [0,inf) = 1 (Gamma(2)).
	r = SemiInfinite(func(x float64) float64 { return x * math.Exp(-x) }, 0, 1e-12, 1e-11)
	if math.Abs(r.Value-1) > 1e-9 {
		t.Errorf("int x e^-x: got %.15g", r.Value)
	}
	// Shifted lower limit: int_2^inf e^{-x} = e^{-2}.
	r = SemiInfinite(func(x float64) float64 { return math.Exp(-x) }, 2, 1e-13, 1e-12)
	if math.Abs(r.Value-math.Exp(-2)) > 1e-10 {
		t.Errorf("int_2 e^-x: got %.15g", r.Value)
	}
}

func TestKronrodErrorEstimateSane(t *testing.T) {
	r := Kronrod(math.Sin, 0, math.Pi, 1e-13, 1e-12)
	if r.AbsErr < 0 || r.AbsErr > 1e-6 {
		t.Errorf("error estimate out of range: %g", r.AbsErr)
	}
	if r.NumEvals <= 0 {
		t.Errorf("NumEvals not tracked")
	}
}

func TestKronrodNarrowSpike(t *testing.T) {
	// A narrow Gaussian spike inside a wide interval forces subdivision.
	f := func(x float64) float64 {
		d := x - 0.123
		return math.Exp(-d * d / (2 * 1e-4))
	}
	want := math.Sqrt(2*math.Pi) * 1e-2 // sigma = 1e-2
	r := Kronrod(f, -10, 10, 1e-13, 1e-11)
	if math.Abs(r.Value-want) > 1e-8 {
		t.Errorf("spike: got %.15g want %.15g", r.Value, want)
	}
}
