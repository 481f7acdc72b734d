// Benchmark harness: one benchmark per figure of Barbut et al.
// (FTXS'23), plus the simulation-validation experiments V1-V6 that the
// paper's conclusion calls for. Each benchmark regenerates its
// figure/experiment per iteration and reports the headline values as
// custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the quantities the paper reports (X_opt, y_opt, n_opt, W_int,
// expected work) next to the timing of the solver that produced them.
// The correctness of every number against the paper's reference values
// is enforced separately by the test-suite (internal/figures).
package reskit_test

import (
	"math"
	"testing"

	"reskit"
	"reskit/internal/figures"
)

// benchFigure regenerates a figure b.N times and reports its measured
// values as metrics.
func benchFigure(b *testing.B, gen func() figures.Figure, metrics ...string) {
	var fig figures.Figure
	for i := 0; i < b.N; i++ {
		fig = gen()
	}
	for _, m := range metrics {
		if v, ok := fig.Measured[m]; ok {
			b.ReportMetric(v, m)
		}
	}
	if bad := fig.Check(); len(bad) > 0 {
		b.Fatalf("%s does not reproduce: %v", fig.ID, bad)
	}
}

// --- Section 3: checkpoint at any instant (Figures 1-4) ---

func BenchmarkFig01aUniform(b *testing.B) {
	benchFigure(b, figures.Fig1a, "X_opt", "E(W(X_opt))", "gain_vs_pess")
}

func BenchmarkFig01bUniform(b *testing.B) {
	benchFigure(b, figures.Fig1b, "X_opt", "E(W(X_opt))")
}

func BenchmarkFig02aExponential(b *testing.B) {
	benchFigure(b, figures.Fig2a, "X_opt", "E(W(X_opt))", "gain_vs_pess")
}

func BenchmarkFig02bExponential(b *testing.B) {
	benchFigure(b, figures.Fig2b, "X_opt", "E(W(X_opt))")
}

func BenchmarkFig03aNormal(b *testing.B) {
	benchFigure(b, figures.Fig3a, "X_opt", "E(W(X_opt))", "gain_vs_pess")
}

func BenchmarkFig03bNormal(b *testing.B) {
	benchFigure(b, figures.Fig3b, "X_opt", "E(W(X_opt))")
}

func BenchmarkFig04aLogNormal(b *testing.B) {
	benchFigure(b, figures.Fig4a, "X_opt", "E(W(X_opt))", "gain_vs_pess")
}

func BenchmarkFig04bLogNormal(b *testing.B) {
	benchFigure(b, figures.Fig4b, "X_opt", "E(W(X_opt))")
}

// --- Section 4.2: static strategy (Figures 5-7) ---

func BenchmarkFig05StaticNormal(b *testing.B) {
	benchFigure(b, figures.Fig5, "y_opt", "n_opt", "E(n_opt)")
}

func BenchmarkFig06StaticGamma(b *testing.B) {
	benchFigure(b, figures.Fig6, "y_opt", "n_opt", "E(n_opt)")
}

func BenchmarkFig07StaticPoisson(b *testing.B) {
	benchFigure(b, figures.Fig7, "y_opt", "n_opt", "E(n_opt)")
}

// --- Section 4.3: dynamic strategy (Figures 8-10) ---

func BenchmarkFig08DynamicNormal(b *testing.B) {
	benchFigure(b, figures.Fig8, "W_int")
}

func BenchmarkFig09DynamicGamma(b *testing.B) {
	benchFigure(b, figures.Fig9, "W_int")
}

func BenchmarkFig10DynamicPoisson(b *testing.B) {
	benchFigure(b, figures.Fig10, "W_int")
}

// --- V1: Monte-Carlo validation of the preemptible formulas ---

func BenchmarkValidatePreemptible(b *testing.B) {
	p := reskit.NewPreemptible(10, reskit.Truncate(reskit.Exponential(0.5), 1, 5))
	sol := p.OptimalX()
	var agg reskit.PreemptibleAggregate
	for i := 0; i < b.N; i++ {
		agg = reskit.MonteCarloPreemptible(p, sol.X, 50000, 1, 0)
	}
	b.ReportMetric(sol.ExpectedWork, "analytic")
	b.ReportMetric(agg.Work.Mean(), "simulated")
	if math.Abs(agg.Work.Mean()-sol.ExpectedWork) > 5*agg.Work.StdErr() {
		b.Fatalf("simulation %g does not validate analytic %g", agg.Work.Mean(), sol.ExpectedWork)
	}
}

// --- V2: Monte-Carlo validation of the workflow formulas ---

func BenchmarkValidateWorkflow(b *testing.B) {
	ckpt := reskit.TruncatedNormal(5, 0.4)
	static := reskit.NewStatic(30, reskit.Normal(3, 0.5), ckpt)
	want := static.ExpectedWork(7)
	cfg := reskit.SimConfig{
		R: 30, Task: reskit.TruncatedNormal(3, 0.5), Ckpt: ckpt,
		Strategy: reskit.StaticStrategy(7),
	}
	var agg reskit.SimAggregate
	for i := 0; i < b.N; i++ {
		agg = reskit.MonteCarlo(cfg, 50000, 1, 0)
	}
	b.ReportMetric(want, "analytic")
	b.ReportMetric(agg.Saved.Mean(), "simulated")
	if math.Abs(agg.Saved.Mean()-want) > 5*agg.Saved.StdErr()+0.05 {
		b.Fatalf("simulation %g does not validate analytic %g", agg.Saved.Mean(), want)
	}
}

// --- V3: strategy comparison on the Figure 8 instance ---

func BenchmarkStrategySweep(b *testing.B) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	dyn := reskit.NewDynamic(29, task, ckpt)
	nOpt := reskit.NewStatic(29, reskit.Normal(3, 0.5), ckpt).Optimize().NOpt
	base := reskit.SimConfig{R: 29, Task: task, Ckpt: ckpt}
	mk := func(s reskit.Strategy) reskit.SimConfig { c := base; c.Strategy = s; return c }

	const trials = 20000
	var oracle, dynM, statM, pessM float64
	for i := 0; i < b.N; i++ {
		oracle = reskit.MonteCarloOracle(mk(reskit.NeverStrategy()), trials, 3, 0).Saved.Mean()
		dynM = reskit.MonteCarlo(mk(reskit.DynamicStrategy(dyn)), trials, 3, 0).Saved.Mean()
		statM = reskit.MonteCarlo(mk(reskit.StaticStrategy(nOpt)), trials, 3, 0).Saved.Mean()
		pessM = reskit.MonteCarlo(mk(reskit.PessimisticStrategy(
			task.Quantile(0.9999), ckpt.Quantile(0.9999))), trials, 3, 0).Saved.Mean()
	}
	b.ReportMetric(oracle, "oracle")
	b.ReportMetric(dynM, "dynamic")
	b.ReportMetric(statM, "static")
	b.ReportMetric(pessM, "pessim")
	if !(oracle+0.1 >= dynM && dynM+0.1 >= statM && statM+0.1 >= pessM) {
		b.Fatalf("ordering violated: oracle %g dyn %g stat %g pess %g", oracle, dynM, statM, pessM)
	}
}

// --- V4: gain of optimal over pessimistic vs checkpoint variability ---

func BenchmarkGainAblation(b *testing.B) {
	// Widen the support [a, b] of a Uniform checkpoint law around mean 4
	// and record the optimal-vs-pessimistic gain: the more variable the
	// checkpoint time, the more the paper's strategy wins.
	spreads := []float64{0.5, 1, 2, 3}
	gains := make([]float64, len(spreads))
	for i := 0; i < b.N; i++ {
		for j, s := range spreads {
			p := reskit.NewPreemptible(10, reskit.Uniform(4-s, 4+s))
			gains[j] = p.Gain()
		}
	}
	for j, s := range spreads {
		b.ReportMetric(gains[j], "gain@±"+formatSpread(s))
	}
	for j := 1; j < len(gains); j++ {
		if gains[j] < gains[j-1]-1e-9 {
			b.Fatalf("gain not monotone in variability: %v", gains)
		}
	}
}

func formatSpread(s float64) string {
	switch s {
	case 0.5:
		return "0.5"
	case 1:
		return "1"
	case 2:
		return "2"
	default:
		return "3"
	}
}

// --- V5: Section 4.4 after-checkpoint policies ---

func BenchmarkAfterCheckpoint(b *testing.B) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(2, 0.3)
	dyn := reskit.NewDynamic(60, task, ckpt)
	base := reskit.SimConfig{R: 60, Task: task, Ckpt: ckpt, Strategy: reskit.DynamicStrategy(dyn)}

	const trials = 10000
	var dropSaved, contSaved, dropUsed, contUsed float64
	for i := 0; i < b.N; i++ {
		drop := base
		drop.After = reskit.DropReservation
		cont := base
		cont.After = reskit.ContinueExecution
		aggDrop := reskit.MonteCarlo(drop, trials, 4, 0)
		aggCont := reskit.MonteCarlo(cont, trials, 4, 0)
		dropSaved, dropUsed = aggDrop.Saved.Mean(), aggDrop.TimeUsed.Mean()
		contSaved, contUsed = aggCont.Saved.Mean(), aggCont.TimeUsed.Mean()
	}
	b.ReportMetric(dropSaved, "drop_saved")
	b.ReportMetric(contSaved, "cont_saved")
	b.ReportMetric(dropSaved/dropUsed, "drop_eff")
	b.ReportMetric(contSaved/contUsed, "cont_eff")
	if contSaved < dropSaved {
		b.Fatalf("continuing saved less (%g) than dropping (%g)", contSaved, dropSaved)
	}
}

// --- V6: multi-reservation campaign with recovery ---

func BenchmarkCampaign(b *testing.B) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	dyn := reskit.NewDynamic(29, task, ckpt)
	cfg := reskit.CampaignConfig{
		Reservation: reskit.SimConfig{
			R: 29, Recovery: 1.5, Task: task, Ckpt: ckpt,
			Strategy: reskit.DynamicStrategy(dyn),
		},
		TotalWork: 500,
	}
	const trials = 200
	reskit.MonteCarloCampaign(cfg, 1, 1, 1) // build the coefficient table outside the timing
	b.ResetTimer()
	var agg reskit.CampaignAggregate
	for i := 0; i < b.N; i++ {
		agg = reskit.MonteCarloCampaign(cfg, trials, 1, 0)
	}
	b.ReportMetric(agg.Reservations, "reservations")
	b.ReportMetric(agg.Utilization, "utilization")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
	if !agg.CompletedAll {
		b.Fatalf("campaign incomplete")
	}
}

// BenchmarkCampaignSerial is the one-worker reference for
// BenchmarkCampaign: the ns/trial ratio between the two is the
// parallel speedup on the host (cmd/bench records it per workload in
// BENCH_suite.json).
func BenchmarkCampaignSerial(b *testing.B) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	dyn := reskit.NewDynamic(29, task, ckpt)
	cfg := reskit.CampaignConfig{
		Reservation: reskit.SimConfig{
			R: 29, Recovery: 1.5, Task: task, Ckpt: ckpt,
			Strategy: reskit.DynamicStrategy(dyn),
		},
		TotalWork: 500,
	}
	const trials = 200
	reskit.MonteCarloCampaign(cfg, 1, 1, 1)
	b.ResetTimer()
	var agg reskit.CampaignAggregate
	for i := 0; i < b.N; i++ {
		agg = reskit.MonteCarloCampaign(cfg, trials, 1, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
	if !agg.CompletedAll {
		b.Fatalf("campaign incomplete")
	}
}

// --- V7: optimality gap of the myopic dynamic rule vs full DP ---

func BenchmarkDPvsMyopic(b *testing.B) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	var dpVal, myopicVal float64
	for i := 0; i < b.N; i++ {
		dpVal = reskit.NewDP(29, task, ckpt, 2048).Solve().Value
		dyn := reskit.NewDynamic(29, task, ckpt)
		cfg := reskit.SimConfig{R: 29, Task: task, Ckpt: ckpt, Strategy: reskit.DynamicStrategy(dyn)}
		myopicVal = reskit.MonteCarlo(cfg, 30000, 6, 0).Saved.Mean()
	}
	b.ReportMetric(dpVal, "dp_optimal")
	b.ReportMetric(myopicVal, "myopic_sim")
	// The myopic rule must be near-optimal here (within MC noise + DP
	// discretization, a couple percent).
	if myopicVal < 0.95*dpVal {
		b.Fatalf("myopic %g far below DP optimum %g", myopicVal, dpVal)
	}
	if myopicVal > dpVal+0.35 {
		b.Fatalf("simulated myopic %g exceeds DP optimum %g beyond noise", myopicVal, dpVal)
	}
}

// --- V8: heavy-tailed checkpoint law (truncated Pareto) ---

func BenchmarkHeavyTailCheckpoint(b *testing.B) {
	// Same support [1, 8] and R for three shapes of D_C. The gain of the
	// optimal instant over the pessimistic X=b plan is driven by how much
	// probability mass sits far below b: a law concentrated near a
	// (Normal at 2, or the truncated Pareto whose density collapses like
	// x^-2.2) gains a lot; a law whose mass hugs b (Normal at 7) gains
	// almost nothing — planning for the worst case is then nearly right.
	lowMass := reskit.Truncate(reskit.Normal(2, 0.5), 1, 8)
	heavy := reskit.Truncate(reskit.Pareto(1, 1.2), 1, 8)
	highMass := reskit.Truncate(reskit.Normal(7, 0.5), 1, 8)
	var gainLow, gainHeavy, gainHigh float64
	for i := 0; i < b.N; i++ {
		gainLow = reskit.NewPreemptible(12, lowMass).Gain()
		gainHeavy = reskit.NewPreemptible(12, heavy).Gain()
		gainHigh = reskit.NewPreemptible(12, highMass).Gain()
	}
	b.ReportMetric(gainLow, "gain_mass@2")
	b.ReportMetric(gainHeavy, "gain_pareto")
	b.ReportMetric(gainHigh, "gain_mass@7")
	if !(gainLow > gainHeavy && gainHeavy > gainHigh) {
		b.Fatalf("gain should decrease as mass moves toward b: %g, %g, %g",
			gainLow, gainHeavy, gainHigh)
	}
	if gainHeavy < 1.3 {
		b.Fatalf("heavy-tail gain %g implausibly small", gainHeavy)
	}
}

// --- V9: generalized dynamic rule on a heterogeneous pipeline ---

func BenchmarkHeterogeneousPipeline(b *testing.B) {
	specs := []reskit.TaskSpec{
		{Duration: reskit.TruncatedNormal(3, 0.4), Ckpt: reskit.TruncatedNormal(2, 0.3)},
		{Duration: reskit.TruncatedNormal(5, 0.8), Ckpt: reskit.TruncatedNormal(2.5, 0.3)},
		{Duration: reskit.Gamma(9, 1.0), Ckpt: reskit.TruncatedNormal(6, 0.8)},
		{Duration: reskit.TruncatedNormal(4, 0.6), Ckpt: reskit.TruncatedNormal(3, 0.4)},
		{Duration: reskit.TruncatedNormal(6, 0.9), Ckpt: reskit.TruncatedNormal(1, 0.2)},
	}
	var n int
	var v float64
	for i := 0; i < b.N; i++ {
		h := reskit.NewHeterogeneous(30, specs)
		n, v = reskit.StaticHeteroHeuristic(h)
	}
	b.ReportMetric(float64(n), "n_heuristic")
	b.ReportMetric(v, "E_heuristic")
}

// --- V10: queue-aware makespan vs reservation length ---

func BenchmarkQueueAwareMakespan(b *testing.B) {
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(5, 0.4)
	base := reskit.SimConfig{Task: task, Ckpt: ckpt, Recovery: 1.5}
	mk := func(r float64) reskit.Strategy {
		return reskit.DynamicStrategy(reskit.NewDynamic(r, task, ckpt))
	}
	candidates := []float64{20, 80}
	var steep, flat map[float64]float64
	for i := 0; i < b.N; i++ {
		steep = reskit.CompareReservationLengths(base, 300,
			reskit.PowerLawWait(0.02, 2.0, 0.3), candidates, mk, 20, 1)
		flat = reskit.CompareReservationLengths(base, 300,
			reskit.ConstantWait(reskit.Deterministic(15)), candidates, mk, 20, 1)
	}
	b.ReportMetric(steep[20], "steep_R20")
	b.ReportMetric(steep[80], "steep_R80")
	b.ReportMetric(flat[20], "flat_R20")
	b.ReportMetric(flat[80], "flat_R80")
	if !(steep[20] < steep[80] && flat[80] < flat[20]) {
		b.Fatalf("wait-model regimes wrong: steep %v flat %v", steep, flat)
	}
}

// --- V11: fail-stop errors inside reservations (Section 5 future work) ---

func BenchmarkFailureRegimes(b *testing.B) {
	// With failures, Young/Daly periodic checkpointing inside the
	// reservation beats the paper's end-only dynamic rule; without
	// failures the ordering flips. Both directions, one benchmark.
	task := reskit.TruncatedNormal(3, 0.5)
	ckpt := reskit.TruncatedNormal(2, 0.3)
	const mtbf = 25.0
	dyn := reskit.NewDynamic(100, task, ckpt)
	mk := func(s reskit.Strategy, failRate float64) reskit.SimConfig {
		cfg := reskit.SimConfig{
			R: 100, Task: task, Ckpt: ckpt, Strategy: s,
			After: reskit.ContinueExecution, Recovery: 0.5,
		}
		if failRate > 0 {
			crash, err := reskit.CrashExponential(failRate)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Faults = &reskit.FaultPlan{Crash: crash}
		}
		return cfg
	}
	const trials = 6000
	var failYD, failDyn, okYD, okDyn float64
	for i := 0; i < b.N; i++ {
		yd := reskit.YoungDalyStrategy(mtbf, ckpt.Mean())
		failYD = reskit.MonteCarlo(mk(yd, 1/mtbf), trials, 14, 0).Saved.Mean()
		failDyn = reskit.MonteCarlo(mk(reskit.DynamicStrategy(dyn), 1/mtbf), trials, 14, 0).Saved.Mean()
		okYD = reskit.MonteCarlo(mk(yd, 0), trials, 14, 0).Saved.Mean()
		okDyn = reskit.MonteCarlo(mk(reskit.DynamicStrategy(dyn), 0), trials, 14, 0).Saved.Mean()
	}
	b.ReportMetric(failYD, "fail_youngdaly")
	b.ReportMetric(failDyn, "fail_dynamic")
	b.ReportMetric(okYD, "ok_youngdaly")
	b.ReportMetric(okDyn, "ok_dynamic")
	if !(failYD > failDyn && okDyn > okYD) {
		b.Fatalf("failure-regime ordering wrong: %g/%g and %g/%g", failYD, failDyn, okYD, okDyn)
	}
}

// --- V12: value of repeated in-reservation commits (§4.4, exact) ---

func BenchmarkMultiCheckpointValue(b *testing.B) {
	// Heavy-tailed tasks + cheap checkpoints: committing in batches
	// insures against one task overshooting the commit window. Report
	// the single- vs multi-checkpoint optima for both task shapes.
	cheap := reskit.TruncatedNormal(1, 0.15)
	lowVar := reskit.TruncatedNormal(3, 0.5)
	heavy := reskit.Gamma(1, 3)
	var sLow, mLow, sHeavy, mHeavy float64
	for i := 0; i < b.N; i++ {
		sLow = reskit.NewDP(60, lowVar, cheap, 2048).Solve().Value
		mLow = reskit.NewMultiDP(60, lowVar, cheap, 512).Solve().Value
		sHeavy = reskit.NewDP(60, heavy, cheap, 2048).Solve().Value
		mHeavy = reskit.NewMultiDP(60, heavy, cheap, 512).Solve().Value
	}
	b.ReportMetric(sLow, "single_lowvar")
	b.ReportMetric(mLow, "multi_lowvar")
	b.ReportMetric(sHeavy, "single_heavy")
	b.ReportMetric(mHeavy, "multi_heavy")
	if mHeavy <= sHeavy+2 {
		b.Fatalf("multi-checkpoint advantage missing: %g vs %g", mHeavy, sHeavy)
	}
}
