// Goodness-of-fit tests exercising the real samplers live in an
// external test package: dist transitively imports obs, which imports
// stats for the quantile sketch, so an in-package import of dist would
// be a cycle.
package stats_test

import (
	"math"
	"testing"

	"reskit/internal/dist"
	"reskit/internal/rng"
	"reskit/internal/stats"
)

func TestKSAcceptsCorrectLaw(t *testing.T) {
	laws := []dist.Continuous{
		dist.NewNormal(3, 0.5),
		dist.NewGamma(2, 1),
		dist.NewUniform(1, 7.5),
		dist.Truncate(dist.NewNormal(5, 0.4), 0, math.Inf(1)),
		dist.Truncate(dist.NewExponential(0.5), 1, 5),
		dist.NewLogNormal(0.5, 0.3),
		dist.NewWeibull(1.5, 2),
		// Laws sampled through an inversion table.
		dist.Truncate(dist.NewGamma(6, 0.5), 0, math.Inf(1)),
		dist.Truncate(dist.NewGamma(2, 1), 0.5, 8),
		dist.Truncate(dist.NewBeta(2, 5), 0.1, 0.9),
	}
	for i, d := range laws {
		r := rng.New(uint64(1000 + i))
		sample := make([]float64, 5000)
		for j := range sample {
			sample[j] = d.Sample(r)
		}
		res := stats.KolmogorovSmirnov(sample, d.CDF)
		if res.PValue < 0.001 {
			t.Errorf("%v: KS rejected its own sampler (D=%g, p=%g)", d, res.Statistic, res.PValue)
		}
	}
}

func TestKSRejectsWrongLaw(t *testing.T) {
	d := dist.NewNormal(3, 0.5)
	wrong := dist.NewNormal(3.2, 0.5)
	r := rng.New(77)
	sample := make([]float64, 5000)
	for j := range sample {
		sample[j] = d.Sample(r)
	}
	res := stats.KolmogorovSmirnov(sample, wrong.CDF)
	if res.PValue > 0.01 {
		t.Errorf("KS failed to reject shifted law (p=%g)", res.PValue)
	}
}

func TestChiSquarePoissonSampler(t *testing.T) {
	p := dist.NewPoisson(4)
	r := rng.New(42)
	const n = 100000
	const kMax = 20
	observed := make([]int64, kMax+1)
	for i := 0; i < n; i++ {
		k := p.Sample(r)
		if k > kMax {
			k = kMax
		}
		observed[k]++
	}
	expected := make([]float64, kMax+1)
	var tail float64 = 1
	for k := 0; k < kMax; k++ {
		expected[k] = p.PMF(k) * n
		tail -= p.PMF(k)
	}
	expected[kMax] = tail * n
	res := stats.ChiSquare(observed, expected, 5)
	if res.PValue < 0.001 {
		t.Errorf("chi-square rejected Poisson sampler: chi2=%g dof=%d p=%g",
			res.Statistic, res.DoF, res.PValue)
	}
}

func TestChiSquareRejectsWrongLaw(t *testing.T) {
	// Counts from Poisson(4) tested against Poisson(5).
	p := dist.NewPoisson(4)
	q := dist.NewPoisson(5)
	r := rng.New(43)
	const n = 100000
	const kMax = 20
	observed := make([]int64, kMax+1)
	for i := 0; i < n; i++ {
		k := p.Sample(r)
		if k > kMax {
			k = kMax
		}
		observed[k]++
	}
	expected := make([]float64, kMax+1)
	var tail float64 = 1
	for k := 0; k < kMax; k++ {
		expected[k] = q.PMF(k) * n
		tail -= q.PMF(k)
	}
	expected[kMax] = tail * n
	res := stats.ChiSquare(observed, expected, 5)
	if res.PValue > 1e-6 {
		t.Errorf("chi-square failed to reject wrong Poisson (p=%g)", res.PValue)
	}
}

func TestAndersonDarlingAcceptsCorrectLaw(t *testing.T) {
	laws := []dist.Continuous{
		dist.NewNormal(3, 0.5),
		dist.NewGamma(2, 1),
		dist.Truncate(dist.NewNormal(5, 0.4), 0, math.Inf(1)),
		dist.NewWeibull(1.5, 2),
		// Laws sampled through an inversion table.
		dist.Truncate(dist.NewGamma(6, 0.5), 0, math.Inf(1)),
		dist.Truncate(dist.NewGamma(2, 1), 0.5, 8),
		dist.Truncate(dist.NewBeta(2, 5), 0.1, 0.9),
	}
	for i, d := range laws {
		r := rng.New(uint64(2000 + i))
		sample := make([]float64, 4000)
		for j := range sample {
			sample[j] = d.Sample(r)
		}
		res := stats.AndersonDarling(sample, d.CDF)
		if res.PValue < 0.001 {
			t.Errorf("%v: AD rejected its own sampler (A2=%g, p=%g)", d, res.Statistic, res.PValue)
		}
	}
}

func TestAndersonDarlingRejectsWrongTail(t *testing.T) {
	// A law with the right center but wrong tail: AD must catch it.
	d := dist.NewGamma(2, 1)                 // mean 2, right-skewed
	wrong := dist.NewNormal(2, math.Sqrt(2)) // same mean/variance, wrong tails
	r := rng.New(88)
	sample := make([]float64, 4000)
	for j := range sample {
		sample[j] = d.Sample(r)
	}
	res := stats.AndersonDarling(sample, wrong.CDF)
	if res.PValue > 0.01 {
		t.Errorf("AD failed to reject wrong-tailed law (p=%g)", res.PValue)
	}
}
