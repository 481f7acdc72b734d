package sim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/fault"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

func paperCkpt(mu, sigma float64) dist.Continuous {
	return dist.Truncate(dist.NewNormal(mu, sigma), 0, math.Inf(1))
}

func paperTask() dist.Continuous {
	return dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
}

// fig8Config is the paper's Figure 8 instance as a simulation config.
func fig8Config(s strategy.Strategy) Config {
	return Config{
		R:        29,
		Task:     paperTask(),
		Ckpt:     paperCkpt(5, 0.4),
		Strategy: s,
	}
}

func TestRunStaticStrategyMatchesAnalyticalExpectation(t *testing.T) {
	// Figure 5 instance: static n=7 must yield mean saved work ~ f(7).
	st := core.NewStatic(30, dist.NewNormal(3, 0.5), paperCkpt(5, 0.4))
	want := st.ExpectedWork(7)

	cfg := Config{
		R:        30,
		Task:     paperTask(),
		Ckpt:     paperCkpt(5, 0.4),
		Strategy: strategy.NewStatic(7),
	}
	agg := MonteCarlo(cfg, 200000, 1, 0)
	got := agg.Saved.Mean()
	if math.Abs(got-want) > 4*agg.Saved.StdErr()+0.05 {
		t.Errorf("simulated E = %g ± %g, analytical %g", got, agg.Saved.CI95(), want)
	}
}

func TestRunStaticPoissonMatchesAnalytical(t *testing.T) {
	// Figure 7 instance: static n=6 with Poisson(3) tasks, R=29.
	st := core.NewStaticDiscrete(29, dist.NewPoisson(3), paperCkpt(5, 0.4))
	want := st.ExpectedWork(6)

	cfg := Config{
		R:        29,
		TaskDisc: dist.NewPoisson(3),
		Ckpt:     paperCkpt(5, 0.4),
		Strategy: strategy.NewStatic(6),
	}
	agg := MonteCarlo(cfg, 200000, 2, 0)
	got := agg.Saved.Mean()
	if math.Abs(got-want) > 4*agg.Saved.StdErr()+0.05 {
		t.Errorf("simulated E = %g ± %g, analytical %g", got, agg.Saved.CI95(), want)
	}
}

func TestStrategyOrdering(t *testing.T) {
	// Expected-work ordering on the Figure 8 instance:
	// oracle >= dynamic >= static(n_opt) >= pessimistic.
	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	stt := core.NewStatic(29, dist.NewNormal(3, 0.5), paperCkpt(5, 0.4))
	nOpt := stt.Optimize().NOpt

	const trials = 100000
	oracle := MonteCarloOracle(fig8Config(strategy.Never{}), trials, 3, 0).Saved.Mean()
	dynMean := MonteCarlo(fig8Config(strategy.NewDynamic(dyn)), trials, 3, 0).Saved.Mean()
	statMean := MonteCarlo(fig8Config(strategy.NewStatic(nOpt)), trials, 3, 0).Saved.Mean()
	// Pessimistic bounds: 0.9999 quantiles.
	xMax := paperTask().Quantile(0.9999)
	cMax := paperCkpt(5, 0.4).Quantile(0.9999)
	pessMean := MonteCarlo(fig8Config(strategy.NewPessimistic(xMax, cMax)), trials, 3, 0).Saved.Mean()
	neverMean := MonteCarlo(fig8Config(strategy.Never{}), trials, 3, 0).Saved.Mean()

	const slack = 0.1
	if !(oracle+slack >= dynMean) {
		t.Errorf("oracle %g < dynamic %g", oracle, dynMean)
	}
	if !(dynMean+slack >= statMean) {
		t.Errorf("dynamic %g < static %g", dynMean, statMean)
	}
	if !(statMean+slack >= pessMean) {
		t.Errorf("static %g < pessimistic %g", statMean, pessMean)
	}
	if neverMean != 0 {
		t.Errorf("never strategy saved %g", neverMean)
	}
	if pessMean <= 0 {
		t.Errorf("pessimistic saved nothing: %g", pessMean)
	}
}

func TestDynamicBeatsStaticWithHighVariance(t *testing.T) {
	// Section 4.3: the dynamic strategy shines when task durations have a
	// large standard deviation.
	task := dist.NewGamma(1, 3) // exponential-like, sd = mean = 3
	ckpt := paperCkpt(5, 0.4)
	dyn := core.NewDynamic(29, task, ckpt)
	stt := core.NewStatic(29, dist.NewGamma(1, 3), ckpt)
	nOpt := stt.Optimize().NOpt

	cfgDyn := Config{R: 29, Task: task, Ckpt: ckpt, Strategy: strategy.NewDynamic(dyn)}
	cfgStat := Config{R: 29, Task: task, Ckpt: ckpt, Strategy: strategy.NewStatic(nOpt)}
	const trials = 150000
	dynMean := MonteCarlo(cfgDyn, trials, 4, 0).Saved.Mean()
	statMean := MonteCarlo(cfgStat, trials, 4, 0).Saved.Mean()
	if dynMean <= statMean {
		t.Errorf("dynamic %g should beat static %g for high-variance tasks", dynMean, statMean)
	}
}

func TestMonteCarloDeterminismAcrossWorkers(t *testing.T) {
	cfg := fig8Config(strategy.NewStatic(7))
	a := MonteCarlo(cfg, 10000, 42, 1)
	b := MonteCarlo(cfg, 10000, 42, 4)
	if a.Saved.Mean() != b.Saved.Mean() || a.Saved.Variance() != b.Saved.Variance() {
		t.Errorf("worker count changed the result: %v vs %v", a.Saved.Mean(), b.Saved.Mean())
	}
	c := MonteCarlo(cfg, 10000, 43, 4)
	if a.Saved.Mean() == c.Saved.Mean() {
		t.Errorf("different seeds gave identical means")
	}
}

func TestRunAccounting(t *testing.T) {
	// Deterministic everything: 3-unit tasks, 2-unit checkpoint law with
	// tiny variance, R=20, static n=5 -> saved 15, elapsed ~17.
	cfg := Config{
		R:        20,
		Task:     dist.Truncate(dist.NewNormal(3, 1e-6), 0, math.Inf(1)),
		Ckpt:     dist.Truncate(dist.NewNormal(2, 1e-6), 0, math.Inf(1)),
		Strategy: strategy.NewStatic(5),
	}
	r := rng.New(1)
	res := Run(cfg, r)
	if math.Abs(res.Saved-15) > 1e-3 {
		t.Errorf("saved %g", res.Saved)
	}
	if res.Tasks != 5 || res.Checkpoints != 1 || res.FailedCkpts != 0 {
		t.Errorf("accounting: %+v", res)
	}
	if math.Abs(res.TimeUsed-17) > 1e-3 {
		t.Errorf("time used %g", res.TimeUsed)
	}
	if res.Lost != 0 {
		t.Errorf("lost %g", res.Lost)
	}
}

func TestRunCheckpointFailure(t *testing.T) {
	// Checkpoint cannot fit: 3-unit tasks, n=6 (18 units), 5-unit
	// checkpoint, R=20 -> failure, everything lost.
	cfg := Config{
		R:        20,
		Task:     dist.Truncate(dist.NewNormal(3, 1e-6), 0, math.Inf(1)),
		Ckpt:     dist.Truncate(dist.NewNormal(5, 1e-6), 0, math.Inf(1)),
		Strategy: strategy.NewStatic(6),
	}
	res := Run(cfg, rng.New(1))
	if res.Saved != 0 || res.FailedCkpts != 1 {
		t.Errorf("expected failed checkpoint: %+v", res)
	}
	if math.Abs(res.Lost-18) > 1e-3 {
		t.Errorf("lost %g, want 18", res.Lost)
	}
	if res.TimeUsed != 20 {
		t.Errorf("failed run must consume the whole reservation, used %g", res.TimeUsed)
	}
}

func TestRunRecoveryConsumesTime(t *testing.T) {
	cfg := Config{
		R:        20,
		Recovery: 19.5,
		Task:     dist.Truncate(dist.NewNormal(3, 1e-6), 0, math.Inf(1)),
		Ckpt:     dist.Truncate(dist.NewNormal(2, 1e-6), 0, math.Inf(1)),
		Strategy: strategy.NewStatic(1),
	}
	res := Run(cfg, rng.New(1))
	if res.Saved != 0 || res.Tasks != 0 {
		t.Errorf("no task fits after recovery: %+v", res)
	}
	// Recovery swallowing everything.
	cfg.Recovery = 25
	res = Run(cfg, rng.New(1))
	if res.Saved != 0 || res.TimeUsed != 20 {
		t.Errorf("recovery > R: %+v", res)
	}
}

func TestRunContinueExecutionCheckpointsRepeatedly(t *testing.T) {
	// After-checkpoint continuation (§4.4): with deterministic 3-unit
	// tasks, 1-unit checkpoints and R=30, static n=3 commits more than
	// one batch.
	cfg := Config{
		R:        30,
		Task:     dist.Truncate(dist.NewNormal(3, 1e-6), 0, math.Inf(1)),
		Ckpt:     dist.Truncate(dist.NewNormal(1, 1e-6), 0, math.Inf(1)),
		Strategy: strategy.NewStatic(3),
		After:    ContinueExecution,
	}
	res := Run(cfg, rng.New(1))
	if res.Checkpoints < 2 {
		t.Errorf("expected repeated checkpoints, got %+v", res)
	}
	if res.Saved < 18 {
		t.Errorf("saved %g, want >= 18", res.Saved)
	}
}

func TestRunOracleUpperBound(t *testing.T) {
	cfg := fig8Config(strategy.NewStatic(7))
	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	cfgDyn := fig8Config(strategy.NewDynamic(dyn))
	const trials = 50000
	oracle := MonteCarloOracle(cfg, trials, 9, 0).Saved.Mean()
	static := MonteCarlo(cfg, trials, 9, 0).Saved.Mean()
	dynamic := MonteCarlo(cfgDyn, trials, 9, 0).Saved.Mean()
	if oracle < static || oracle < dynamic {
		t.Errorf("oracle %g below static %g or dynamic %g", oracle, static, dynamic)
	}
}

func TestMonteCarloPreemptibleMatchesAnalytical(t *testing.T) {
	// Figures 1a, 2a: the simulated mean saved work at several X must
	// match E(W(X)) within Monte-Carlo error.
	instances := []*core.Preemptible{
		core.NewPreemptible(10, dist.NewUniform(1, 7.5)),
		core.NewPreemptible(10, dist.Truncate(dist.NewExponential(0.5), 1, 5)),
		core.NewPreemptible(10, dist.Truncate(dist.NewNormal(3.5, 1), 1, 6)),
		core.NewPreemptible(10, dist.Truncate(dist.NewLogNormal(1, 0.5), 1, 6)),
	}
	for _, p := range instances {
		a, _ := p.Bounds()
		for _, x := range []float64{a + 0.5, 0.5 * (a + 10), p.OptimalX().X} {
			agg := MonteCarloPreemptible(p, x, 120000, 7, 0)
			want := p.ExpectedWork(x)
			if math.Abs(agg.Work.Mean()-want) > 4*agg.Work.StdErr()+1e-9 {
				t.Errorf("%v at X=%g: simulated %g ± %g, analytical %g",
					p.C, x, agg.Work.Mean(), agg.Work.CI95(), want)
			}
			// Success rate equals the truncated CDF at X.
			if math.Abs(agg.SuccessRate()-p.C.CDF(x)) > 0.01 {
				t.Errorf("%v at X=%g: success %g vs CDF %g",
					p.C, x, agg.SuccessRate(), p.C.CDF(x))
			}
		}
	}
}

func TestMonteCarloPreemptibleOracleDominates(t *testing.T) {
	p := core.NewPreemptible(10, dist.NewUniform(1, 7.5))
	opt := p.OptimalX()
	// The two policies as a two-row grid, as simulate -preempt runs them.
	g := PreemptibleGrid(100000, PreemptibleRow{P: p, Oracle: true}, PreemptibleRow{P: p, X: opt.X})
	payloads, err := runGridCtx(context.Background(), g, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := MergePreemptiblePayloads(g.Row(payloads, 0))
	if err != nil {
		t.Fatal(err)
	}
	best, err := MergePreemptiblePayloads(g.Row(payloads, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := MonteCarloPreemptible(p, opt.X, 100000, 11, 0); best != want {
		t.Errorf("grid row 1 %+v differs from MonteCarloPreemptible %+v", best, want)
	}
	if oracle.Work.Mean() < best.Work.Mean() {
		t.Errorf("oracle %g below optimal-X %g", oracle.Work.Mean(), best.Work.Mean())
	}
	// Oracle expected work = R - E[C].
	want := p.R - p.C.Mean()
	if math.Abs(oracle.Work.Mean()-want) > 4*oracle.Work.StdErr()+1e-9 {
		t.Errorf("oracle mean %g, want %g", oracle.Work.Mean(), want)
	}
	if oracle.SuccessRate() != 1 {
		t.Errorf("oracle success rate %g", oracle.SuccessRate())
	}
}

func TestCampaign(t *testing.T) {
	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	cfg := CampaignConfig{
		Reservation: Config{
			R:        29,
			Recovery: 1.5,
			Task:     paperTask(),
			Ckpt:     paperCkpt(5, 0.4),
			Strategy: strategy.NewDynamic(dyn),
		},
		TotalWork: 200,
	}
	res := RunCampaign(cfg, rng.New(21))
	if !res.Completed {
		t.Fatalf("campaign did not complete: %+v", res)
	}
	if res.Committed < 200 {
		t.Errorf("committed %g < 200", res.Committed)
	}
	if u := res.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %g", u)
	}
	if res.TimeUsed > res.TimeReserved {
		t.Errorf("used %g > reserved %g", res.TimeUsed, res.TimeReserved)
	}
	// ~20 units commit per reservation -> about 10-12 reservations.
	if res.Reservations < 8 || res.Reservations > 20 {
		t.Errorf("reservations %d out of plausible range", res.Reservations)
	}
}

func TestMonteCarloCampaign(t *testing.T) {
	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	cfg := CampaignConfig{
		Reservation: Config{
			R:        29,
			Recovery: 1.5,
			Task:     paperTask(),
			Ckpt:     paperCkpt(5, 0.4),
			Strategy: strategy.NewDynamic(dyn),
		},
		TotalWork: 100,
	}
	agg := MonteCarloCampaign(cfg, 200, 5, 0)
	if !agg.CompletedAll {
		t.Errorf("some campaigns failed")
	}
	if agg.Utilization <= 0.3 || agg.Utilization > 1 {
		t.Errorf("mean utilization %g", agg.Utilization)
	}
	if agg.Trials != 200 || agg.Reservations <= 0 || agg.LostWork < 0 {
		t.Errorf("aggregate fields implausible: %+v", agg)
	}
}

func TestMonteCarloCampaignDeterminismAcrossWorkers(t *testing.T) {
	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	cfg := CampaignConfig{
		Reservation: Config{
			R:        29,
			Recovery: 1.5,
			Task:     paperTask(),
			Ckpt:     paperCkpt(5, 0.4),
			Strategy: strategy.NewDynamic(dyn),
		},
		TotalWork: 100,
	}
	const trials = 150 // spans several blocks
	a := MonteCarloCampaign(cfg, trials, 42, 1)
	b := MonteCarloCampaign(cfg, trials, 42, 2)
	c := MonteCarloCampaign(cfg, trials, 42, runtime.GOMAXPROCS(0))
	if a != b || a != c {
		t.Errorf("worker count changed the campaign aggregate:\n1: %+v\n2: %+v\n%d: %+v",
			a, b, runtime.GOMAXPROCS(0), c)
	}
	d := MonteCarloCampaign(cfg, trials, 43, 2)
	if a.Utilization == d.Utilization && a.Reservations == d.Reservations {
		t.Errorf("different seeds gave identical aggregates")
	}
}

func TestConfigValidation(t *testing.T) {
	good := fig8Config(strategy.NewStatic(7))
	cases := []func(){
		func() { c := good; c.R = -1; Run(c, rng.New(1)) },
		func() { c := good; c.Task = nil; Run(c, rng.New(1)) },
		func() { c := good; c.TaskDisc = dist.NewPoisson(3); Run(c, rng.New(1)) }, // both set
		func() { c := good; c.Ckpt = nil; Run(c, rng.New(1)) },
		func() { c := good; c.Strategy = nil; Run(c, rng.New(1)) },
		func() { c := good; c.Recovery = -1; Run(c, rng.New(1)) },
		func() {
			RunCampaign(CampaignConfig{Reservation: good, TotalWork: -1}, rng.New(1))
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMaxTasksCap(t *testing.T) {
	cfg := Config{
		R:        1e6,
		Task:     dist.Truncate(dist.NewNormal(1, 0.1), 0, math.Inf(1)),
		Ckpt:     paperCkpt(5, 0.4),
		Strategy: strategy.Never{},
		MaxTasks: 50,
	}
	res := Run(cfg, rng.New(1))
	if !res.CapHit || res.Tasks != 50 {
		t.Errorf("cap not enforced: %+v", res)
	}
}

func TestStochasticRecovery(t *testing.T) {
	// A stochastic recovery law replaces the fixed recovery; with a
	// recovery that sometimes eats the whole reservation, some runs save
	// nothing.
	cfg := Config{
		R:           10,
		RecoveryLaw: dist.NewUniform(0, 12),
		Task:        dist.Truncate(dist.NewNormal(1, 1e-6), 0, math.Inf(1)),
		Ckpt:        dist.Truncate(dist.NewNormal(0.5, 1e-6), 0, math.Inf(1)),
		Strategy:    strategy.NewStatic(1),
	}
	agg := MonteCarlo(cfg, 20000, 8, 0)
	if agg.ZeroRuns == 0 {
		t.Errorf("no run lost to recovery despite recovery > R sometimes")
	}
	if agg.Saved.Mean() <= 0 {
		t.Errorf("all runs lost")
	}
	// Negative-support recovery laws are rejected.
	bad := cfg
	bad.RecoveryLaw = dist.NewNormal(1, 1)
	defer func() {
		if recover() == nil {
			t.Errorf("negative-support recovery law must panic")
		}
	}()
	Run(bad, rng.New(1))
}

func TestStochasticRecoveryMatchesFixedWhenDegenerate(t *testing.T) {
	task := dist.Truncate(dist.NewNormal(3, 1e-9), 0, math.Inf(1))
	ckpt := dist.Truncate(dist.NewNormal(2, 1e-9), 0, math.Inf(1))
	fixed := Config{R: 20, Recovery: 1.5, Task: task, Ckpt: ckpt, Strategy: strategy.NewStatic(5)}
	stoch := fixed
	stoch.Recovery = 0
	stoch.RecoveryLaw = dist.NewDeterministic(1.5)
	a := Run(fixed, rng.New(9))
	b := Run(stoch, rng.New(9))
	if math.Abs(a.Saved-b.Saved) > 1e-6 || a.Tasks != b.Tasks {
		t.Errorf("deterministic recovery law diverged: %+v vs %+v", a, b)
	}
}

func TestFailureInjection(t *testing.T) {
	// High failure rate: runs must record failures and lose work.
	cfg := Config{
		R:        100,
		Task:     dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)),
		Ckpt:     dist.Truncate(dist.NewNormal(2, 0.3), 0, math.Inf(1)),
		Strategy: strategy.NewPeriodic(15),
		After:    ContinueExecution,
		Recovery: 0.5,
		Faults:   &fault.Plan{Crash: fault.ExpArrival{Rate: 1.0 / 20}}, // MTBF 20
	}
	agg := MonteCarlo(cfg, 20000, 12, 0)
	if agg.Saved.Mean() <= 0 {
		t.Fatalf("periodic strategy saved nothing under failures")
	}
	// Failure-free baseline must save strictly more.
	noFail := cfg
	noFail.Faults = nil
	aggNF := MonteCarlo(noFail, 20000, 12, 0)
	if aggNF.Saved.Mean() <= agg.Saved.Mean() {
		t.Errorf("failures should reduce saved work: %g vs %g",
			aggNF.Saved.Mean(), agg.Saved.Mean())
	}
	// Failures were actually recorded.
	one := Run(cfg, rng.New(5))
	total := 0
	for i := 0; i < 200; i++ {
		total += Run(cfg, rng.NewStream(13, uint64(i))).Failures
	}
	if total == 0 {
		t.Errorf("no failures recorded at MTBF 20 over 200 runs: %+v", one)
	}
}

func TestYoungDalyBeatsEndOnlyUnderFailures(t *testing.T) {
	// With frequent failures, periodic Young/Daly checkpointing inside
	// the reservation must beat the single end-of-reservation dynamic
	// checkpoint; without failures the ordering flips.
	task := dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
	ckpt := dist.Truncate(dist.NewNormal(2, 0.3), 0, math.Inf(1))
	const mtbf = 25.0
	base := Config{
		R: 100, Task: task, Ckpt: ckpt,
		After:    ContinueExecution,
		Recovery: 0.5,
	}
	dyn := core.NewDynamic(100, task, ckpt)

	mk := func(s strategy.Strategy, failRate float64) Config {
		c := base
		c.Strategy = s
		if failRate > 0 {
			c.Faults = &fault.Plan{Crash: fault.ExpArrival{Rate: failRate}}
		}
		return c
	}
	yd := strategy.NewYoungDaly(mtbf, ckpt.Mean())
	const trials = 8000
	withFailYD := MonteCarlo(mk(yd, 1/mtbf), trials, 14, 0).Saved.Mean()
	withFailDyn := MonteCarlo(mk(strategy.NewDynamic(dyn), 1/mtbf), trials, 14, 0).Saved.Mean()
	if withFailYD <= withFailDyn {
		t.Errorf("under failures Young/Daly %g should beat end-only dynamic %g",
			withFailYD, withFailDyn)
	}
	noFailYD := MonteCarlo(mk(yd, 0), trials, 14, 0).Saved.Mean()
	noFailDyn := MonteCarlo(mk(strategy.NewDynamic(dyn), 0), trials, 14, 0).Saved.Mean()
	if noFailDyn <= noFailYD {
		t.Errorf("failure-free end-only dynamic %g should beat Young/Daly %g",
			noFailDyn, noFailYD)
	}
}

func TestRunInvariantsProperty(t *testing.T) {
	// Per-run conservation laws over randomized configurations:
	// TimeUsed <= R; Saved, Lost >= 0; Saved+Lost <= TimeUsed (work
	// cannot exceed machine time); Saved > 0 implies a checkpoint.
	strategies := []strategy.Strategy{
		strategy.NewStatic(3),
		strategy.NewPeriodic(8),
		strategy.Never{},
	}
	src := rng.New(77)
	for trial := 0; trial < 400; trial++ {
		r := 10 + src.Float64()*50
		cfg := Config{
			R:        r,
			Recovery: src.Float64() * 3,
			Task:     dist.NewGamma(0.5+src.Float64()*3, 0.3+src.Float64()),
			Ckpt:     dist.Truncate(dist.NewNormal(1+src.Float64()*4, 0.2+src.Float64()), 0, math.Inf(1)),
			Strategy: strategies[trial%len(strategies)],
			After:    AfterPolicy(trial % 2),
		}
		if trial%4 == 0 {
			cfg.Faults = &fault.Plan{Crash: fault.ExpArrival{Rate: 0.05}}
		}
		res := Run(cfg, src)
		if res.TimeUsed > cfg.R+1e-9 {
			t.Fatalf("trial %d: TimeUsed %g > R %g", trial, res.TimeUsed, cfg.R)
		}
		if res.Saved < 0 || res.Lost < 0 {
			t.Fatalf("trial %d: negative accounting %+v", trial, res)
		}
		if res.Saved+res.Lost > res.TimeUsed+1e-9 {
			t.Fatalf("trial %d: work %g exceeds machine time %g",
				trial, res.Saved+res.Lost, res.TimeUsed)
		}
		if res.Saved > 0 && res.Checkpoints == 0 {
			t.Fatalf("trial %d: saved %g without checkpoints", trial, res.Saved)
		}
		if res.Checkpoints > 0 && res.Saved == 0 {
			t.Fatalf("trial %d: checkpointed but saved nothing", trial)
		}
	}
}
