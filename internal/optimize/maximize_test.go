package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionParabola(t *testing.T) {
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	r := GoldenSection(f, 0, 10, 1e-10)
	if math.Abs(r.X-3) > 1e-7 || math.Abs(r.F) > 1e-12 {
		t.Errorf("got X=%.12g F=%.12g", r.X, r.F)
	}
}

func TestMaxGridRefineMultimodal(t *testing.T) {
	// Two peaks; the global one at x=7 is narrower but taller.
	f := func(x float64) float64 {
		return math.Exp(-(x-2)*(x-2)) + 1.5*math.Exp(-8*(x-7)*(x-7))
	}
	r := MaxGridRefine(f, 0, 10, 101, 1e-10)
	if math.Abs(r.X-7) > 1e-4 {
		t.Errorf("global max missed: X=%.12g F=%.12g", r.X, r.F)
	}
}

func TestMaxReversedInterval(t *testing.T) {
	f := func(x float64) float64 { return -(x - 1) * (x - 1) }
	r := GoldenSection(f, 5, -5, 1e-10)
	if math.Abs(r.X-1) > 1e-6 {
		t.Errorf("reversed interval: X=%.12g", r.X)
	}
}

func TestGoldenSectionProperty(t *testing.T) {
	// Random concave quadratics: the maximizer must find the vertex.
	prop := func(uc, ua float64) bool {
		c := math.Mod(uc, 50)
		amp := 0.1 + math.Abs(math.Mod(ua, 10))
		f := func(x float64) float64 { return -amp * (x - c) * (x - c) }
		g := GoldenSection(f, c-60, c+40, 1e-11)
		return math.Abs(g.X-c) < 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestArgmaxInt(t *testing.T) {
	f := func(n int) float64 { return -math.Abs(float64(n) - 7.3) }
	n, v := ArgmaxInt(f, 7.4, 1)
	if n != 7 || v != f(7) {
		t.Errorf("got n=%d v=%g", n, v)
	}
	g := func(n int) float64 { return -math.Abs(float64(n) - 7.9) }
	n, _ = ArgmaxInt(g, 7.9, 1)
	if n != 8 {
		t.Errorf("ceil should win: n=%d", n)
	}
	// Integral y: floor == ceil.
	n, _ = ArgmaxInt(f, 5, 1)
	if n != 5 {
		t.Errorf("integral y: n=%d", n)
	}
	// Clamping at lo.
	n, _ = ArgmaxInt(f, 0.2, 1)
	if n != 1 {
		t.Errorf("clamp: n=%d", n)
	}
}
