package optimize

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

type rootCase struct {
	name string
	f    func(float64) float64
	df   func(float64) float64
	a, b float64
	want float64
}

func rootCases() []rootCase {
	return []rootCase{
		{
			name: "x^2-2",
			f:    func(x float64) float64 { return x*x - 2 },
			df:   func(x float64) float64 { return 2 * x },
			a:    0, b: 2, want: math.Sqrt2,
		},
		{
			name: "cos(x)-x",
			f:    func(x float64) float64 { return math.Cos(x) - x },
			df:   func(x float64) float64 { return -math.Sin(x) - 1 },
			a:    0, b: 1, want: 0.7390851332151607,
		},
		{
			name: "exp(x)-3",
			f:    func(x float64) float64 { return math.Exp(x) - 3 },
			df:   math.Exp,
			a:    0, b: 2, want: math.Log(3),
		},
		{
			name: "cubic with flat region",
			f:    func(x float64) float64 { return (x - 1) * (x - 1) * (x - 1) },
			df:   func(x float64) float64 { return 3 * (x - 1) * (x - 1) },
			a:    0, b: 3, want: 1,
		},
	}
}

func TestBisect(t *testing.T) {
	for _, c := range rootCases() {
		x, err := Bisect(c.f, c.a, c.b, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(x-c.want) > 1e-9 {
			t.Errorf("%s: got %.15g want %.15g", c.name, x, c.want)
		}
	}
}

func TestBrentRoot(t *testing.T) {
	for _, c := range rootCases() {
		x, err := Brent(c.f, c.a, c.b, 1e-14)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(x-c.want) > 1e-7 {
			t.Errorf("%s: got %.15g want %.15g", c.name, x, c.want)
		}
	}
}

func TestRootNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("Bisect: want ErrNoBracket, got %v", err)
	}
	if _, err := Brent(f, -1, 1, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("Brent: want ErrNoBracket, got %v", err)
	}
}

func TestRootAtEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Brent(f, 0, 1, 0); err != nil || x != 0 {
		t.Errorf("root at left endpoint: %g, %v", x, err)
	}
	if x, err := Bisect(f, -1, 0, 0); err != nil || x != 0 {
		t.Errorf("root at right endpoint: %g, %v", x, err)
	}
}

func TestBrentRandomLinesProperty(t *testing.T) {
	// f(x) = m(x - r) with random slope and root: Brent must recover r.
	prop := func(um, ur float64) bool {
		m := 0.1 + math.Abs(math.Mod(um, 10))
		r := math.Mod(ur, 100)
		f := func(x float64) float64 { return m * (x - r) }
		x, err := Brent(f, r-13, r+29, 1e-13)
		return err == nil && math.Abs(x-r) <= 1e-8*(1+math.Abs(r))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
