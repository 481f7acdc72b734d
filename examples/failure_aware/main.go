// Failure-aware checkpointing: the paper's Section 5 future work.
//
// The paper deliberately studies failure-free platforms, where the only
// "failure" is the deterministic reservation end; its related work
// contrasts that with the classical regime of random fail-stop errors
// mitigated by periodic Young/Daly checkpointing. This example puts both
// regimes side by side: a 100-second reservation with cheap checkpoints,
// swept across failure rates from none to harsh, comparing the paper's
// end-only dynamic rule against Young/Daly periodic commits.
//
//	go run ./examples/failure_aware
package main

import (
	"fmt"
	"log"
	"math"

	"reskit"
)

func main() {
	const r = 100.0
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(2, 0.3)
	dyn := reskit.NewDynamic(r, task, ckpt)

	fmt.Printf("R = %g s, tasks ~ %v, checkpoints ~ %v\n", r, task, ckpt)
	fmt.Printf("%10s %12s %14s %14s %9s\n",
		"MTBF", "Y/D period", "dynamic (§4.3)", "Young/Daly", "winner")

	const trials = 20000
	for _, mtbf := range []float64{0, 400, 100, 50, 25, 12} {
		var faults *reskit.FaultPlan
		period := "-"
		var ydStrategy reskit.Strategy
		if mtbf > 0 {
			crash, err := reskit.CrashExponential(1 / mtbf)
			if err != nil {
				log.Fatal(err)
			}
			faults = &reskit.FaultPlan{Crash: crash}
			yd := reskit.YoungDalyStrategy(mtbf, ckpt.Mean())
			ydStrategy = yd
			period = fmt.Sprintf("%.1f s", periodOf(mtbf, ckpt.Mean()))
		} else {
			// Failure-free: Young/Daly degenerates; use a generous period.
			ydStrategy = reskit.PeriodicStrategy(30)
			period = "30 s"
		}

		mk := func(s reskit.Strategy) reskit.SimConfig {
			return reskit.SimConfig{
				R: r, Task: task, Ckpt: ckpt, Strategy: s,
				After: reskit.ContinueExecution, Recovery: 0.5,
				Faults: faults,
			}
		}
		dynSaved := reskit.MonteCarlo(mk(reskit.DynamicStrategy(dyn)), trials, 1, 0).Saved.Mean()
		ydSaved := reskit.MonteCarlo(mk(ydStrategy), trials, 1, 0).Saved.Mean()
		winner := "dynamic"
		if ydSaved > dynSaved {
			winner = "Young/Daly"
		}
		mtbfLabel := "inf"
		if mtbf > 0 {
			mtbfLabel = fmt.Sprintf("%.0f s", mtbf)
		}
		fmt.Printf("%10s %12s %14.2f %14.2f %9s\n", mtbfLabel, period, dynSaved, ydSaved, winner)
	}

	fmt.Println("\nFailure-free, the paper's end-only rule maximizes saved work; as errors")
	fmt.Println("become frequent, periodic commits take over — quantifying the boundary")
	fmt.Println("between the paper's regime and the classical Young/Daly regime.")
}

// periodOf mirrors the Young/Daly first-order period.
func periodOf(mtbf, meanCkpt float64) float64 {
	return math.Sqrt(2 * mtbf * meanCkpt)
}
