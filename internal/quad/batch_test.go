package quad

import (
	"math"
	"runtime"
	"testing"
)

// batchOf adapts a scalar function into a BatchFunc for tests.
func batchOf(f func(float64) float64) BatchFunc {
	return func(xs, out []float64) {
		for i, x := range xs {
			out[i] = f(x)
		}
	}
}

func TestKronrodBatchMatchesScalar(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64 // analytic value
	}{
		{"exp", math.Exp, 0, 1, math.E - 1},
		{"cos", math.Cos, 0, math.Pi / 2, 1},
		{"gauss", func(x float64) float64 { return math.Exp(-x * x) }, -3, 3,
			math.Sqrt(math.Pi) * (math.Erf(3))},
		{"peak", func(x float64) float64 { return 1 / (1 + 1e4*x*x) }, -1, 1,
			2 * math.Atan(100) / 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scalar := Kronrod(tc.f, tc.a, tc.b, 1e-12, 1e-10)
			batch := KronrodBatch(batchOf(tc.f), tc.a, tc.b, 1e-12, 1e-10)
			if scalar.Value != batch.Value || scalar.AbsErr != batch.AbsErr ||
				scalar.NumEvals != batch.NumEvals {
				t.Errorf("batch result %+v differs from scalar %+v", batch, scalar)
			}
			if math.Abs(batch.Value-tc.want) > 1e-9*(1+math.Abs(tc.want)) {
				t.Errorf("value %.15g, want %.15g", batch.Value, tc.want)
			}
		})
	}
}

func TestKronrodBatchReversedAndEmpty(t *testing.T) {
	fwd := KronrodBatch(batchOf(math.Exp), 0, 1, 0, 0)
	rev := KronrodBatch(batchOf(math.Exp), 1, 0, 0, 0)
	if fwd.Value != -rev.Value {
		t.Errorf("reversed bounds: %g vs %g", fwd.Value, rev.Value)
	}
	if r := KronrodBatch(batchOf(math.Exp), 2, 2, 0, 0); r.Value != 0 || r.NumEvals != 0 {
		t.Errorf("empty interval: %+v", r)
	}
}

// TestKronrodBatchZeroAllocSteadyState asserts the pooled workspace makes
// repeated integration allocation-free after warm-up (the acceptance
// criterion measured by BenchmarkKronrodBatchPanel).
func TestKronrodBatchZeroAllocSteadyState(t *testing.T) {
	f := BatchFunc(func(xs, out []float64) {
		for i, x := range xs {
			out[i] = math.Exp(-x * x)
		}
	})
	KronrodBatch(f, 0, 4, 1e-12, 1e-10) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		KronrodBatch(f, 0, 4, 1e-12, 1e-10)
	})
	if allocs > 0 {
		t.Errorf("steady-state KronrodBatch allocates %.2f objects/op, want 0", allocs)
	}
}

// TestKronrodBatchFreshWorkspaceIsSmall: sync.Pool drops idle
// workspaces after two garbage collections, so an integration that
// runs rarely (the exact path of a dynamic decision) pays for a fresh
// one each time. That must cost what the integration uses, not a heap
// sized for maxKronrodPanels.
func TestKronrodBatchFreshWorkspaceIsSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under -race; allocation sizes do not hold")
	}
	f := batchOf(math.Exp)
	KronrodBatch(f, 0, 1, 1e-12, 1e-10)
	// TotalAlloc counts every goroutine of the process, so take the
	// smallest of a few tries.
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := KronrodBatch(f, 0, 1, 1e-12, 1e-10)
		runtime.ReadMemStats(&after)
		if !res.Converged || res.NumEvals != 150 {
			t.Fatalf("smooth integrand: %+v, want convergence on the 10 seed panels", res)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 2048 {
		t.Errorf("KronrodBatch on a fresh workspace allocated %d B, want < 2 KB", least)
	}
}

func BenchmarkKronrodBatchPanel(b *testing.B) {
	f := BatchFunc(func(xs, out []float64) {
		for i, x := range xs {
			out[i] = math.Exp(-x*x) * math.Cos(3*x)
		}
	})
	KronrodBatch(f, 0, 4, 1e-12, 1e-10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KronrodBatch(f, 0, 4, 1e-12, 1e-10)
	}
}

func BenchmarkKronrodScalarPanel(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-x*x) * math.Cos(3*x) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Kronrod(f, 0, 4, 1e-12, 1e-10)
	}
}
