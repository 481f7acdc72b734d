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
