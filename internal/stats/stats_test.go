package stats

import (
	"math"
	"testing"
	"testing/quick"

	"reskit/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean %g", s.Mean())
	}
	// Population variance of this classic sample is 4; unbiased = 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance %g", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("extrema %g %g", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Errorf("CI95 %g", s.CI95())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 {
		t.Errorf("empty summary moments")
	}
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Errorf("empty summary extrema")
	}
	if !math.IsInf(s.StdErr(), 1) {
		t.Errorf("empty summary stderr")
	}
}

func TestSummaryMergeEqualsSequential(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormalMS(3, 2)
		}
		var whole Summary
		for _, x := range xs {
			whole.Add(x)
		}
		var a, b Summary
		cut := n / 3
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-10 &&
			math.Abs(a.Variance()-whole.Variance()) < 1e-8 &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeWithEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Add(3)
	a.Merge(b) // no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Errorf("merge with empty changed summary")
	}
	b.Merge(a) // adopt
	if b.N() != 2 || b.Mean() != 2 {
		t.Errorf("empty.Merge(full) wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 || Quantile(xs, 0.5) != 3 {
		t.Errorf("quantiles wrong")
	}
	if math.Abs(Quantile(xs, 0.25)-2) > 1e-12 {
		t.Errorf("q25 %g", Quantile(xs, 0.25))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(xs, -0.1)) {
		t.Errorf("invalid inputs")
	}
	// Input must not be reordered.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("input mutated: %v", ys)
	}
}

func TestKSEmptySample(t *testing.T) {
	res := KolmogorovSmirnov(nil, func(float64) float64 { return 0.5 })
	if !math.IsNaN(res.Statistic) {
		t.Errorf("empty sample should give NaN")
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	res := ChiSquare([]int64{5}, []float64{5}, 5)
	if res.DoF != 0 || res.PValue != 1 {
		t.Errorf("single-cell test should be vacuous: %+v", res)
	}
	res = ChiSquare([]int64{1, 2}, []float64{1}, 5)
	if !math.IsNaN(res.Statistic) {
		t.Errorf("mismatched lengths should give NaN")
	}
}

func TestAndersonDarlingEmpty(t *testing.T) {
	res := AndersonDarling(nil, func(float64) float64 { return 0.5 })
	if !math.IsNaN(res.Statistic) {
		t.Errorf("empty sample should give NaN")
	}
}
