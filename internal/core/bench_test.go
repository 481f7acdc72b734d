package core

import (
	"context"
	"math"
	"testing"

	"reskit/internal/dist"
	"reskit/internal/obs"
)

// Solver micro-benchmarks: the per-call cost of each analysis, which is
// what a scheduler integrating this library would pay online.

func BenchmarkOptimalXUniform(b *testing.B) {
	p := NewPreemptible(10, dist.NewUniform(1, 7.5))
	for i := 0; i < b.N; i++ {
		_ = p.OptimalX()
	}
}

func BenchmarkOptimalXExponentialLambertW(b *testing.B) {
	p := NewPreemptible(10, dist.Truncate(dist.NewExponential(0.5), 1, 5))
	for i := 0; i < b.N; i++ {
		_ = p.OptimalX()
	}
}

func BenchmarkOptimalXNormalStationarity(b *testing.B) {
	p := NewPreemptible(10, dist.Truncate(dist.NewNormal(3.5, 1), 1, 6))
	for i := 0; i < b.N; i++ {
		_ = p.OptimalX()
	}
}

func BenchmarkOptimalXNumericFallback(b *testing.B) {
	p := NewPreemptible(10, dist.Truncate(dist.NewWeibull(1.5, 3), 1, 6))
	for i := 0; i < b.N; i++ {
		_ = p.OptimalX()
	}
}

func BenchmarkStaticOptimizeNormal(b *testing.B) {
	s := NewStatic(30, dist.NewNormal(3, 0.5), paperCkpt(5, 0.4))
	for i := 0; i < b.N; i++ {
		_ = s.Optimize()
	}
}

func BenchmarkStaticOptimizePoisson(b *testing.B) {
	s := NewStaticDiscrete(29, dist.NewPoisson(3), paperCkpt(5, 0.4))
	for i := 0; i < b.N; i++ {
		_ = s.Optimize()
	}
}

func BenchmarkDynamicDecision(b *testing.B) {
	d := NewDynamic(29, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(5, 0.4))
	for i := 0; i < b.N; i++ {
		_ = d.ShouldCheckpoint(15)
	}
}

// decisionSink keeps the benchmarked decisions alive.
var decisionSink bool

// BenchmarkShouldCheckpointAt times the generalized decision, the call
// behind every campaign boundary once a recovery or an earlier
// checkpoint has split elapsed time from work, on three replayed state
// sets of the e2ebench campaign instances (R = 29, checkpoint
// N(5, 0.4²)|[0,∞)):
//   - table: the states after a 1.5 recovery, spread over the
//     reservation up to a budget of 2.5;
//   - nearline: states within 5e-4·(1+B) of the indifference line
//     work·A(b) = B(b), inside the 1e-3 band where linear
//     interpolation re-ran the exact integrals;
//   - deadzone: budgets under 2, where no checkpoint fits.
//
// guarded/op reports the share of decisions the cell's guard settled
// without the cubics, counted outside the timed loop; exact/op and
// deadzone/op the share that left the table.
func BenchmarkShouldCheckpointAt(b *testing.B) {
	type state struct{ work, elapsed float64 }
	for _, inst := range []struct {
		name string
		task dist.Continuous
	}{
		{"norm", dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))},
		{"gamma", dist.Truncate(dist.NewGamma(6, 0.5), 0, math.Inf(1))},
	} {
		d := NewDynamic(29, inst.task, paperCkpt(5, 0.4))
		if err := d.Prebuild(context.Background()); err != nil {
			b.Fatal(err)
		}
		var table, nearLine, deadZone []state
		for i := 0; i < 256; i++ {
			elapsed := 1.5 + 25*(float64(i)+0.5)/256
			table = append(table, state{elapsed - 1.5, elapsed})
			budget := 0.05 + 1.9*float64(i)/256
			deadZone = append(deadZone, state{d.R - budget - 1.5, d.R - budget})
		}
		// The indifference line is reachable (work <= elapsed) on a
		// stretch of budgets only; spread the near-line states over it.
		for i := 0; i < 4096; i++ {
			budget := d.R * float64(i) / 4096
			a, bb := d.exactCoefficients(budget)
			sign := float64(1 - 2*(i%2))
			if work := (bb + sign*5e-4*(1+bb)) / a; a > 0 && work > 0 && work <= d.R-budget {
				nearLine = append(nearLine, state{work, d.R - budget})
			}
		}
		for _, set := range []struct {
			name   string
			states []state
		}{{"table", table}, {"nearline", nearLine}, {"deadzone", deadZone}} {
			b.Run(inst.name+"/"+set.name, func(b *testing.B) {
				if len(set.states) == 0 {
					b.Fatal("no states")
				}
				exact, dead := new(obs.Counter), new(obs.Counter)
				ObserveDecisions(exact, dead)
				defer ObserveDecisions(nil, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st := set.states[i%len(set.states)]
					decisionSink = d.ShouldCheckpointAt(st.work, st.elapsed)
				}
				b.StopTimer()
				guarded := 0
				for i := 0; i < b.N; i++ {
					st := set.states[i%len(set.states)]
					j, _ := d.cellAt(d.R - st.elapsed)
					if g := d.guards[j]; st.work < g.lo || st.work > g.hi {
						guarded++
					}
				}
				b.ReportMetric(float64(guarded)/float64(b.N), "guarded/op")
				b.ReportMetric(float64(exact.Value())/float64(b.N), "exact/op")
				b.ReportMetric(float64(dead.Value())/float64(b.N), "deadzone/op")
			})
		}
	}
}

func BenchmarkDynamicIntersection(b *testing.B) {
	d := NewDynamic(29, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(5, 0.4))
	for i := 0; i < b.N; i++ {
		if _, err := d.Intersection(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPSolve2048(b *testing.B) {
	task := dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
	ckpt := paperCkpt(5, 0.4)
	for i := 0; i < b.N; i++ {
		_ = NewDP(29, task, ckpt, 2048).Solve()
	}
}

func BenchmarkHeterogeneousDecision(b *testing.B) {
	h := Homogeneous(29, 20, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(5, 0.4))
	for i := 0; i < b.N; i++ {
		if _, err := h.ShouldCheckpoint(5, 15, 15); err != nil {
			b.Fatal(err)
		}
	}
}
