package specfun

import (
	"math"
	"testing"
)

// sink defeats dead-code elimination in the benchmarks below.
var sink float64

// benchGrid is a fixed panel of evaluation points spanning both the
// series (x < a+1) and continued-fraction (x >= a+1) branches of the
// incomplete-gamma kernels for the shapes benchmarked.
var benchGrid = func() []float64 {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 0.05 + 8*float64(i)/float64(len(xs)-1)
	}
	return xs
}()

func BenchmarkNormPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = NormPDF(0.7)
	}
}

func BenchmarkLogNormPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = LogNormPDF(0.7)
	}
}

func BenchmarkNormCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = NormCDF(0.7)
	}
}

// normQuantilePanel maps 1024 evenly spread points u in (0, 1) (a
// golden-ratio sequence) through f into a panel of probabilities.
func normQuantilePanel(f func(i int, u float64) float64) []float64 {
	ps := make([]float64, 1024)
	for i := range ps {
		_, u := math.Modf(0.5 + float64(i)*0.6180339887498949)
		ps[i] = f(i, u)
	}
	return ps
}

// tailPanel draws r = sqrt(-ln min(p, 1-p)) evenly from [lo, hi] and
// alternates between the lower and the upper tail.
func tailPanel(lo, hi float64) []float64 {
	return normQuantilePanel(func(i int, u float64) float64 {
		r := lo + u*(hi-lo)
		p := math.Exp(-r * r)
		if i%2 == 1 {
			p = 1 - p
		}
		return p
	})
}

// BenchmarkNormQuantile times each branch of the AS241 kernel, and the
// p-mix the canonical instance feeds it: the truncated-Normal sampler
// maps u ~ U(0,1) to p = F(0) + u*(1-F(0)) for the task law N(3, 0.5^2)
// and the checkpoint law N(5, 0.4^2), both truncated to [0, inf).
func BenchmarkNormQuantile(b *testing.B) {
	fTask, fCkpt := NormCDF(-3/0.5), NormCDF(-5/0.4)
	for _, bc := range []struct {
		name string
		ps   []float64
	}{
		{"central", normQuantilePanel(func(_ int, u float64) float64 { return 0.075 + 0.85*u })},
		{"tail", tailPanel(math.Sqrt(-math.Log(0.075)), 5)},
		{"deeptail", tailPanel(5, 26)},
		{"canonical", normQuantilePanel(func(i int, u float64) float64 {
			f := fTask
			if i%2 == 1 {
				f = fCkpt
			}
			return f + u*(1-f)
		})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = NormQuantile(bc.ps[i&(len(bc.ps)-1)])
			}
		})
	}
}

func BenchmarkGammaIncP(b *testing.B) {
	b.Run("series", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = GammaIncP(2, 1.5)
		}
	})
	b.Run("contfrac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = GammaIncP(2, 7.5)
		}
	})
}

func BenchmarkGammaIncQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = GammaIncQ(2, 7.5)
	}
}

func BenchmarkGammaIncPInv(b *testing.B) {
	b.Run("a=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = GammaIncPInv(2, 0.3)
		}
	})
	b.Run("a=0.5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = GammaIncPInv(0.5, 0.8)
		}
	})
}

func BenchmarkPoissonCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = PoissonCDF(4, 3.2)
	}
}

func BenchmarkLogPoissonPMF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = LogPoissonPMF(4, 3.2)
	}
}

func BenchmarkLogBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = LogBeta(2.5, 3.5)
	}
}

func BenchmarkBetaIncReg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = BetaIncReg(2.5, 3.5, 0.4)
	}
}

func BenchmarkBetaIncRegInv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = BetaIncRegInv(2.5, 3.5, 0.4)
	}
}

func BenchmarkDigamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = Digamma(3.7)
	}
}

func BenchmarkLambertW0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = LambertW0(1.5)
	}
}

// Scalar-loop reference points for the batch kernels: the same grid the
// Batch benchmarks sweep, evaluated one call at a time.
func BenchmarkNormCDFScalarLoop(b *testing.B) {
	out := make([]float64, len(benchGrid))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range benchGrid {
			out[j] = NormCDF(x)
		}
	}
	sink = out[0]
	b.ReportMetric(float64(len(benchGrid)), "points/op")
}

func BenchmarkGammaIncPScalarLoop(b *testing.B) {
	out := make([]float64, len(benchGrid))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range benchGrid {
			out[j] = GammaIncP(2, x)
		}
	}
	sink = out[0]
	b.ReportMetric(float64(len(benchGrid)), "points/op")
}

// Batch kernels over the same grids as the ScalarLoop references above;
// the ratio of the two is the hoisting + lockstep win.
func BenchmarkNormCDFBatch(b *testing.B) {
	out := make([]float64, len(benchGrid))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NormCDFBatch(benchGrid, out)
	}
	sink = out[0]
	b.ReportMetric(float64(len(benchGrid)), "points/op")
}

func BenchmarkGammaIncPBatch(b *testing.B) {
	out := make([]float64, len(benchGrid))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GammaIncPBatch(2, benchGrid, out)
	}
	sink = out[0]
	b.ReportMetric(float64(len(benchGrid)), "points/op")
}

// Guard: the benchmarks above must exercise finite values, or the
// timings measure NaN short-circuits instead of the kernels.
func TestBenchInputsFinite(t *testing.T) {
	for _, x := range benchGrid {
		if math.IsNaN(GammaIncP(2, x)) {
			t.Fatalf("benchGrid point %g yields NaN", x)
		}
	}
}
