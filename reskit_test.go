package reskit_test

import (
	"errors"
	"math"
	"testing"

	"reskit"
)

func TestQuickstartPreemptible(t *testing.T) {
	law := reskit.Truncate(reskit.Normal(5, 0.4), 3, 7)
	prob := reskit.NewPreemptible(60, law)
	var sol reskit.Solution = prob.OptimalX()
	if !(sol.X >= 3 && sol.X <= 7) {
		t.Fatalf("X_opt %g outside support", sol.X)
	}
	if sol.ExpectedWork <= 0 || sol.ExpectedWork >= 60 {
		t.Fatalf("E(W) %g implausible", sol.ExpectedWork)
	}
	if prob.Gain() < 1 {
		t.Fatalf("gain %g < 1", prob.Gain())
	}
}

func TestPublicDistributionConstructors(t *testing.T) {
	laws := []reskit.Continuous{
		reskit.Uniform(1, 2),
		reskit.Exponential(0.5),
		reskit.Normal(3, 0.5),
		reskit.LogNormal(0, 1),
		reskit.LogNormalFromMoments(3, 1),
		reskit.Gamma(2, 1),
		reskit.Weibull(1.5, 2),
		reskit.Deterministic(4),
		reskit.TruncatedNormal(5, 0.4),
		reskit.Empirical([]float64{1, 2, 3, 4}),
	}
	r := reskit.NewRNG(1)
	for _, law := range laws {
		x := law.Sample(r)
		lo, hi := law.Support()
		if x < lo || x > hi {
			t.Errorf("%v: sample %g outside [%g, %g]", law, x, lo, hi)
		}
	}
	if reskit.Poisson(3).Mean() != 3 {
		t.Errorf("Poisson mean")
	}
}

func TestQuickstartWorkflow(t *testing.T) {
	ckpt := reskit.TruncatedNormal(5, 0.4)
	static := reskit.NewStatic(30, reskit.Normal(3, 0.5), ckpt)
	var sol reskit.StaticSolution = static.Optimize()
	if sol.NOpt != 7 {
		t.Fatalf("n_opt = %d, want 7 (paper Fig 5)", sol.NOpt)
	}

	dyn := reskit.NewDynamic(29, reskit.TruncatedNormal(3, 0.5), ckpt)
	w, err := dyn.Intersection()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-20.3) > 0.3 {
		t.Fatalf("W_int = %g, want ~20.3 (paper Fig 8)", w)
	}

	// Poisson tasks (paper Figs 7 and 10).
	if n := reskit.NewStaticDiscrete(29, reskit.Poisson(3), ckpt).Optimize().NOpt; n != 6 {
		t.Fatalf("discrete n_opt = %d, want 6 (paper Fig 7)", n)
	}
	w, err = reskit.NewDynamicDiscrete(29, reskit.Poisson(3), ckpt).Intersection()
	if err != nil || math.Abs(w-18.9) > 0.4 {
		t.Fatalf("discrete W_int = %g (%v), want ~18.9 (paper Fig 10)", w, err)
	}

	// A reservation too short for any task has no indifference point.
	short := reskit.NewDynamic(1, reskit.TruncatedNormal(5, 0.5), reskit.TruncatedNormal(0.2, 0.05))
	if _, err := short.Intersection(); !errors.Is(err, reskit.ErrNoIntersection) {
		t.Fatalf("short reservation: err = %v, want ErrNoIntersection", err)
	}
}

// TestTryConstructorsReturnErrors drives every Try* twin down its error
// path: invalid input from flags must come back as an error, never as a
// panic.
func TestTryConstructorsReturnErrors(t *testing.T) {
	ckpt := reskit.TruncatedNormal(5, 0.4)
	for name, try := range map[string]func() error{
		"TryNewPreemptible": func() error { _, err := reskit.TryNewPreemptible(10, reskit.Normal(5, 1)); return err },
		"TryNewStatic":      func() error { _, err := reskit.TryNewStatic(-1, reskit.Normal(3, 0.5), ckpt); return err },
		"TryNewStaticDiscrete": func() error {
			_, err := reskit.TryNewStaticDiscrete(math.NaN(), reskit.Poisson(3), ckpt)
			return err
		},
		"TryNewDynamic": func() error { _, err := reskit.TryNewDynamic(29, reskit.Normal(3, 0.5), ckpt); return err },
		"TryNewDynamicDiscrete": func() error {
			_, err := reskit.TryNewDynamicDiscrete(29, nil, ckpt)
			return err
		},
		"TryNewDP":               func() error { _, err := reskit.TryNewDP(0, reskit.Gamma(2, 1), ckpt, 64); return err },
		"TryNewMultiDP":          func() error { _, err := reskit.TryNewMultiDP(29, nil, ckpt, 64); return err },
		"TryPessimisticStrategy": func() error { _, err := reskit.TryPessimisticStrategy(-1, 2); return err },
	} {
		if try() == nil {
			t.Errorf("%s accepted invalid input", name)
		}
	}
}

func TestQuickstartSimulation(t *testing.T) {
	ckpt := reskit.TruncatedNormal(5, 0.4)
	task := reskit.TruncatedNormal(3, 0.5)
	dyn := reskit.NewDynamic(29, task, ckpt)
	cfg := reskit.SimConfig{
		R:        29,
		Task:     task,
		Ckpt:     ckpt,
		Strategy: reskit.DynamicStrategy(dyn),
	}
	agg := reskit.MonteCarlo(cfg, 20000, 1, 0)
	if agg.Trials != 20000 {
		t.Fatalf("trials %d", agg.Trials)
	}
	if agg.Saved.Mean() <= 15 || agg.Saved.Mean() >= 29 {
		t.Fatalf("mean saved %g implausible", agg.Saved.Mean())
	}
	// Oracle dominates.
	oracle := reskit.MonteCarloOracle(cfg, 20000, 1, 0)
	if oracle.Saved.Mean() < agg.Saved.Mean() {
		t.Fatalf("oracle %g < dynamic %g", oracle.Saved.Mean(), agg.Saved.Mean())
	}
}

func TestQuickstartTraceLoop(t *testing.T) {
	// Sample synthetic checkpoint durations, learn D_C, solve.
	truth := reskit.Truncate(reskit.Normal(5, 0.5), 3.5, 6.5)
	r := reskit.NewRNG(7)
	var tr reskit.Trace
	for i := 0; i < 5000; i++ {
		if err := tr.Add(truth.Sample(r)); err != nil {
			t.Fatal(err)
		}
	}
	law, fit, err := reskit.CheckpointLawFromTrace(&tr, math.NaN(), math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 5000 {
		t.Fatalf("fit.N = %d", fit.N)
	}
	prob := reskit.NewPreemptible(60, law)
	solLearned := prob.OptimalX()
	solTruth := reskit.NewPreemptible(60, truth).OptimalX()
	if math.Abs(solLearned.X-solTruth.X) > 0.5 {
		t.Fatalf("learned X_opt %g vs truth %g", solLearned.X, solTruth.X)
	}
}

func TestCampaignFacade(t *testing.T) {
	ckpt := reskit.TruncatedNormal(5, 0.4)
	task := reskit.TruncatedNormal(3, 0.5)
	dyn := reskit.NewDynamic(29, task, ckpt)
	res := reskit.RunCampaign(reskit.CampaignConfig{
		Reservation: reskit.SimConfig{
			R: 29, Recovery: 1, Task: task, Ckpt: ckpt,
			Strategy: reskit.DynamicStrategy(dyn),
		},
		TotalWork: 100,
	}, reskit.NewRNG(3))
	if !res.Completed {
		t.Fatalf("campaign incomplete: %+v", res)
	}
}

func TestStrategyConstructors(t *testing.T) {
	for _, s := range []reskit.Strategy{
		reskit.StaticStrategy(5),
		reskit.PessimisticStrategy(4, 6),
		reskit.ThresholdStrategy(20),
		reskit.NeverStrategy(),
	} {
		if s.Name() == "" {
			t.Errorf("unnamed strategy")
		}
	}
	st := reskit.StrategyState{R: 10, Elapsed: 3, Work: 3}
	var a reskit.Action = reskit.ThresholdStrategy(2).Decide(st)
	if a != reskit.ActionCheckpoint {
		t.Errorf("threshold decision wrong")
	}
	if reskit.NeverStrategy().Decide(st) != reskit.ActionContinue {
		t.Errorf("never decision wrong")
	}
}

func TestExtensionsFacade(t *testing.T) {
	// New laws.
	tri := reskit.Triangular(1, 4, 7.5)
	if math.Abs(tri.Mean()-(1+4+7.5)/3) > 1e-12 {
		t.Errorf("triangular mean %g", tri.Mean())
	}
	par := reskit.Pareto(2, 3)
	if par.Mean() != 3 {
		t.Errorf("pareto mean %g", par.Mean())
	}
	mix := reskit.Mixture([]reskit.Continuous{reskit.Normal(3, 0.3), reskit.Normal(6, 0.3)},
		[]float64{1, 1})
	if math.Abs(mix.Mean()-4.5) > 1e-12 {
		t.Errorf("mixture mean %g", mix.Mean())
	}
	aff := reskit.Affine(reskit.Gamma(25, 0.004), 40, 2)
	if math.Abs(aff.Mean()-6) > 1e-12 {
		t.Errorf("affine mean %g", aff.Mean())
	}

	// A mixture D_C through the preemptible optimizer.
	dc := reskit.Truncate(mix, 1, 8)
	sol := reskit.NewPreemptible(20, dc).OptimalX()
	if !(sol.X >= 1 && sol.X <= 8) {
		t.Errorf("mixture X_opt %g", sol.X)
	}

	// Heterogeneous chain.
	h := reskit.NewHeterogeneous(20, []reskit.TaskSpec{
		{Duration: reskit.Gamma(4, 0.5), Ckpt: reskit.TruncatedNormal(2, 0.3)},
		{Duration: reskit.Gamma(4, 0.5), Ckpt: reskit.TruncatedNormal(2, 0.3)},
	})
	if h.Len() != 2 {
		t.Errorf("chain length %d", h.Len())
	}
	if _, err := h.ShouldCheckpoint(5, 1, 1); !errors.Is(err, reskit.ErrChainExhausted) {
		t.Errorf("out-of-range index: err = %v, want ErrChainExhausted", err)
	}
	n, _ := reskit.StaticHeteroHeuristic(h)
	if n < 1 || n > 2 {
		t.Errorf("hetero heuristic n=%d", n)
	}

	// DP reference solver.
	dp := reskit.NewDP(29, reskit.TruncatedNormal(3, 0.5), reskit.TruncatedNormal(5, 0.4), 1024)
	var dpSol reskit.DPSolution = dp.Solve()
	if dpSol.Value <= 0 || dpSol.Threshold <= 0 {
		t.Errorf("DP solution %+v", dpSol)
	}
	var multi reskit.MultiDPSolution = reskit.NewMultiDP(29, reskit.TruncatedNormal(3, 0.5), reskit.TruncatedNormal(5, 0.4), 64).Solve()
	if multi.Value < dpSol.Value-0.5 {
		t.Errorf("multi-checkpoint value %g below the single-commit optimum %g", multi.Value, dpSol.Value)
	}
}

func TestStochasticRecoveryFacade(t *testing.T) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	dyn := reskit.NewDynamic(29, task, ckpt)
	cfg := reskit.SimConfig{
		R: 29, Task: task, Ckpt: ckpt,
		Strategy:    reskit.DynamicStrategy(dyn),
		RecoveryLaw: reskit.TruncatedNormal(1.5, 0.2),
	}
	agg := reskit.MonteCarlo(cfg, 10000, 2, 0)
	if agg.Saved.Mean() <= 0 {
		t.Errorf("nothing saved with stochastic recovery")
	}
}

func TestPlannerFacade(t *testing.T) {
	opts, err := reskit.PlanReservationLength(reskit.PlannerConfig{
		TotalWork:  100,
		Task:       reskit.TruncatedNormal(3, 0.5),
		Ckpt:       reskit.TruncatedNormal(5, 0.4),
		Recovery:   1.5,
		Candidates: []float64{20, 60},
		Trials:     20,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 2 || opts[0].WorkPerCost < opts[1].WorkPerCost {
		t.Errorf("planner frontier wrong: %+v", opts)
	}
}

func TestQueueAwareFacade(t *testing.T) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	dyn := reskit.NewDynamic(29, task, ckpt)
	res := reskit.RunWithQueue(reskit.SchedConfig{
		Campaign: reskit.CampaignConfig{
			Reservation: reskit.SimConfig{
				R: 29, Recovery: 1.5, Task: task, Ckpt: ckpt,
				Strategy: reskit.DynamicStrategy(dyn),
			},
			TotalWork: 60,
		},
		Wait: reskit.PowerLawWait(0.5, 1.0, 0.5),
	}, reskit.NewRNG(5))
	if !res.Completed || res.TotalWait <= 0 || res.Makespan <= res.TimeUsed {
		t.Errorf("queue-aware run wrong: %+v", res)
	}

	spans := reskit.CompareReservationLengths(
		reskit.SimConfig{Task: task, Ckpt: ckpt, Recovery: 1.5},
		100,
		reskit.ConstantWait(reskit.Deterministic(10)),
		[]float64{20, 60},
		func(r float64) reskit.Strategy {
			return reskit.DynamicStrategy(reskit.NewDynamic(r, task, ckpt))
		},
		10, 3)
	if len(spans) != 2 || spans[20] <= 0 || spans[60] <= 0 {
		t.Errorf("CompareReservationLengths wrong: %v", spans)
	}
}

func TestFailureFacade(t *testing.T) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(2, 0.3)
	crash, err := reskit.CrashExponential(1.0 / 25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reskit.SimConfig{
		R: 60, Task: task, Ckpt: ckpt,
		Strategy: reskit.YoungDalyStrategy(25, ckpt.Mean()),
		After:    reskit.ContinueExecution,
		Faults:   &reskit.FaultPlan{Crash: crash},
		Recovery: 0.5,
	}
	agg := reskit.MonteCarlo(cfg, 5000, 3, 0)
	if agg.Saved.Mean() <= 0 {
		t.Errorf("Young/Daly under failures saved nothing")
	}
	if reskit.PeriodicStrategy(10).Name() == "" {
		t.Errorf("periodic unnamed")
	}
}

func TestBetaFacade(t *testing.T) {
	b := reskit.Beta(2, 3)
	if math.Abs(b.Mean()-0.4) > 1e-12 {
		t.Errorf("Beta mean %g", b.Mean())
	}
	on := reskit.BetaOn(2, 3, 1, 6)
	lo, hi := on.Support()
	if lo != 1 || hi != 6 {
		t.Errorf("BetaOn support [%g, %g]", lo, hi)
	}
	// A Beta-shaped D_C through the preemptible solver: support is
	// already bounded, no truncation required.
	sol := reskit.NewPreemptible(12, on).OptimalX()
	if !(sol.X >= 1 && sol.X <= 6) {
		t.Errorf("X_opt %g", sol.X)
	}
}
