package dist

import (
	"math"
	"testing"

	"reskit/internal/rng"
)

// sink defeats dead-code elimination in the benchmarks below.
var sink float64

// BenchmarkTruncatedNormalSample draws the canonical instance's task
// duration: N(3, 0.5^2) truncated to [0, inf), sampled by inverse CDF
// through specfun.NormQuantile.
func BenchmarkTruncatedNormalSample(b *testing.B) {
	t := Truncate(NewNormal(3, 0.5), 0, math.Inf(1))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = t.Sample(r)
	}
}

// BenchmarkTruncatedGammaSample draws the e2ebench campaign-gamma task
// duration, Gamma(6, 0.5) truncated to [0, inf), through its inversion
// table (the exact quantile, specfun.GammaIncPInv, outside its range).
func BenchmarkTruncatedGammaSample(b *testing.B) {
	t := Truncate(NewGamma(6, 0.5), 0, math.Inf(1))
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = t.Sample(r)
	}
}

// BenchmarkTruncatedBetaSample draws Beta(2, 5) truncated to [0.1, 0.9]
// through its inversion table (specfun.BetaIncRegInv outside its range).
func BenchmarkTruncatedBetaSample(b *testing.B) {
	t := Truncate(NewBeta(2, 5), 0.1, 0.9)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = t.Sample(r)
	}
}

// BenchmarkInversionTableBuild times the set-up cost a table adds to
// Truncate, and reports the table's cell count.
func BenchmarkInversionTableBuild(b *testing.B) {
	for _, d := range []*Truncated{
		Truncate(NewGamma(6, 0.5), 0, math.Inf(1)),
		Truncate(NewBeta(2, 5), 0.1, 0.9),
	} {
		b.Run(d.String(), func(b *testing.B) {
			var tb *invTable
			for i := 0; i < b.N; i++ {
				tb = newInvTable(d)
			}
			b.ReportMetric(float64(len(tb.cells)-1), "cells")
		})
	}
}
