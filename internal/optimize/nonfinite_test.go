package optimize

import (
	"errors"
	"math"
	"testing"
)

// poleAt returns x-root with a NaN pole at exactly x == pole.
func poleAt(root, pole float64) func(float64) float64 {
	return func(x float64) float64 {
		if x == pole {
			return math.NaN()
		}
		return x - root
	}
}

func TestBisectRoutesAroundIsolatedNaN(t *testing.T) {
	// The pole sits at the first midpoint; the nudged-abscissa probe must
	// step around it and still converge.
	f := poleAt(0.3, 0.5)
	x, err := Bisect(f, 0, 1, 1e-10)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(x-0.3) > 1e-9 {
		t.Errorf("root = %g, want 0.3", x)
	}
}

func TestBisectNaNEndpoint(t *testing.T) {
	f := func(x float64) float64 { return math.NaN() }
	_, err := Bisect(f, 0, 1, 1e-10)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not a *ConvergenceError", err)
	}
	if ce.Method != "bisect" {
		t.Errorf("Method = %q, want bisect", ce.Method)
	}
}

func TestBrentFallsBackOnNaNLanding(t *testing.T) {
	// A function whose evaluation NaNs on a thin interior strip: Brent's
	// interpolation step can land there, and must fall back to bracketed
	// bisection instead of returning NaN.
	f := func(x float64) float64 {
		if x > 0.49 && x < 0.51 && x != 0.5 {
			return math.NaN()
		}
		return math.Tanh(4 * (x - 0.7))
	}
	x, err := Brent(f, 0, 1, 1e-10)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if math.Abs(x-0.7) > 1e-8 {
		t.Errorf("root = %g, want 0.7", x)
	}
}

func TestBrentNaNEndpoint(t *testing.T) {
	f := func(x float64) float64 {
		if x == 0 {
			return math.NaN()
		}
		return x - 0.5
	}
	_, err := Brent(f, 0, 1, 1e-10)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

func TestConvergenceErrorWrapsMaxIterations(t *testing.T) {
	// A step at 0.3 bracketed by [0, 1e300]: halving that bracket down
	// to the step takes about a thousand bisections, far beyond the
	// 200-iteration budget, so bisection must give up with a structured
	// ErrMaxIterations.
	f := func(x float64) float64 {
		if x < 0.3 {
			return -1
		}
		return 1
	}
	_, err := Bisect(f, 0, 1e300, 1e-300)
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not a *ConvergenceError", err)
	}
	if ce.Iters != 200 {
		t.Errorf("Iters = %d, want 200", ce.Iters)
	}
	if !(ce.Best >= 0 && ce.Best <= 1e300) {
		t.Errorf("Best = %g outside the bracket", ce.Best)
	}
	if ce.Error() == "" {
		t.Error("empty error message")
	}
}
