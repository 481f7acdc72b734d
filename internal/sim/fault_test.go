package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"reskit/internal/dist"
	"reskit/internal/engine"
	"reskit/internal/fault"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// faultyCampaignConfig is the Figure 8 instance run as a threshold-policy
// campaign, the shared fixture of the fault regression tests.
func faultyCampaignConfig(p *fault.Plan) CampaignConfig {
	return CampaignConfig{
		Reservation: Config{
			R:        29,
			Recovery: 1.5,
			Task:     paperTask(),
			Ckpt:     paperCkpt(5, 0.4),
			Strategy: strategy.NewWorkThreshold(20),
			Faults:   p,
		},
		TotalWork: 200,
	}
}

func TestRunCkptFailureNeverCommits(t *testing.T) {
	// With every commit failing, no work is ever saved; the attempts
	// consume time and are counted in CkptFaults.
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{Ckpt: fault.CkptBernoulli{P: 1}}
	r := rng.New(21)
	sawFault := false
	for i := 0; i < 200; i++ {
		res := Run(cfg, r)
		if res.Saved != 0 || res.Checkpoints != 0 {
			t.Fatalf("run %d committed work despite p=1 commit failures: %+v", i, res)
		}
		if res.CkptFaults > 0 {
			sawFault = true
			if res.Lost == 0 {
				t.Fatalf("run %d had %d failed commits but lost no work: %+v", i, res.CkptFaults, res)
			}
		}
	}
	if !sawFault {
		t.Fatal("no run recorded a checkpoint fault")
	}
}

func TestRunRevocationTruncatesHorizon(t *testing.T) {
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{Revoke: fault.UniformRevocation{P: 1}}
	r := rng.New(13)
	for i := 0; i < 200; i++ {
		res := Run(cfg, r)
		if !res.Revoked {
			t.Fatalf("run %d not flagged revoked under p=1 revocation: %+v", i, res)
		}
		if !(res.TimeUsed < cfg.R) {
			t.Fatalf("run %d used %g >= nominal R %g despite revocation", i, res.TimeUsed, cfg.R)
		}
	}
}

func TestCampaignFaultGoldenRegression(t *testing.T) {
	// Seeded golden values, one per fault model plus their composition:
	// any change to the documented fault sampling order (recovery, then
	// revocation horizon, then first crash gap; one gap per crash, one
	// commit variate per completed attempt) breaks these exact numbers.
	// The counts depend only on that order; Committed and LostWork also
	// carry the last bits of specfun.NormQuantile, so a change of the
	// quantile kernel may move them by an ulp or two and nothing else.
	golden := map[string]struct {
		plan *fault.Plan
		want CampaignResult
	}{
		"crash": {
			plan: &fault.Plan{Crash: fault.ExpArrival{Rate: 0.02}},
			want: CampaignResult{Reservations: 16, Committed: 210.85489410999696, LostWork: 134.13343169175508, Crashes: 5, Completed: true},
		},
		"ckptfail": {
			plan: &fault.Plan{Ckpt: fault.CkptBernoulli{P: 0.3}},
			want: CampaignResult{Reservations: 17, Committed: 212.48873097584217, LostWork: 151.9579358775373, CkptFaults: 5, Completed: true},
		},
		"revoke": {
			plan: &fault.Plan{Revoke: fault.UniformRevocation{P: 0.3}},
			want: CampaignResult{Reservations: 13, Committed: 215.27968044603423, LostWork: 28.080759830095957, RevokedRes: 4, Completed: true},
		},
		"all": {
			plan: &fault.Plan{Crash: fault.ExpArrival{Rate: 0.02}, Ckpt: fault.CkptBernoulli{P: 0.3}, Revoke: fault.UniformRevocation{P: 0.3}},
			want: CampaignResult{Reservations: 45, Committed: 215.08826634667318, LostWork: 632.1111145549448, CkptFaults: 12, Crashes: 12, RevokedRes: 10, Completed: true},
		},
	}
	for name, g := range golden {
		got := RunCampaign(faultyCampaignConfig(g.plan), rng.NewStream(42, 0))
		if got.Reservations != g.want.Reservations ||
			got.Committed != g.want.Committed ||
			got.LostWork != g.want.LostWork ||
			got.CkptFaults != g.want.CkptFaults ||
			got.Crashes != g.want.Crashes ||
			got.RevokedRes != g.want.RevokedRes ||
			got.Completed != g.want.Completed {
			t.Errorf("%s: campaign drifted from golden values:\n got  %+v\n want %+v", name, got, g.want)
		}
	}
}

func TestFaultyCampaignBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := faultyCampaignConfig(&fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.02},
		Ckpt:   fault.CkptBernoulli{P: 0.2},
		Revoke: fault.UniformRevocation{P: 0.1},
	})
	const trials = 500
	ref := MonteCarloCampaign(cfg, trials, 7, 1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		if got := MonteCarloCampaign(cfg, trials, 7, workers); got != ref {
			t.Errorf("faulty campaign aggregate differs at %d workers:\n got  %+v\n want %+v", workers, got, ref)
		}
	}
}

func TestFaultyMonteCarloBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	cfg.Faults = &fault.Plan{
		Crash:  fault.ExpArrival{Rate: 0.05},
		Ckpt:   fault.CkptHazard{Rate: 0.1},
		Revoke: fault.ExpRevocation{Rate: 0.01},
	}
	const trials = 20000
	ref := MonteCarlo(cfg, trials, 3, 1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		if got := MonteCarlo(cfg, trials, 3, workers); got != ref {
			t.Errorf("faulty reservation aggregate differs at %d workers", workers)
		}
	}
}

// runGridCtx runs g's jobs through engine.Run under ctx on workers (all
// CPUs when <= 0), as a CLI does, and returns the job-ordered payloads
// and the run's error.
func runGridCtx(ctx context.Context, g *Grid, seed uint64, workers int) ([][]byte, error) {
	res, err := engine.Run(ctx, engine.Spec{Jobs: g.Jobs(), Seed: seed, Workers: workers})
	return res.Payloads, err
}

func TestMonteCarloCampaignContextCancellation(t *testing.T) {
	// Acceptance criterion: cancelling a campaign grid run returns
	// within 100ms, and its payloads merge to a well-formed partial
	// aggregate of whole blocks.
	cfg := faultyCampaignConfig(&fault.Plan{Crash: fault.ExpArrival{Rate: 0.02}})
	cfg.TotalWork = 5000 // long campaigns, so cancellation strikes mid-flight

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	const trials = 200000 // hours of campaigning — cannot finish before the cancel
	start := time.Now()
	payloads, err := runGridCtx(ctx, CampaignGrid(cfg, trials), 11, 0)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 120*time.Millisecond {
		t.Errorf("cancellation took %v, want <= 100ms after the cancel signal", elapsed)
	}
	agg, err := MergeCampaignPayloads(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials < 0 || agg.Trials >= trials || agg.Trials%campaignBlockSize != 0 {
		t.Errorf("partial aggregate accounted %d trials, want whole blocks short of %d", agg.Trials, trials)
	}
	if agg.Trials > 0 {
		if math.IsNaN(agg.Utilization) || agg.Utilization < 0 || agg.Utilization > 1 {
			t.Errorf("partial utilization %g malformed", agg.Utilization)
		}
		if agg.Reservations <= 0 {
			t.Errorf("partial mean reservations %g malformed", agg.Reservations)
		}
	}
}

func TestMonteCarloContextCancellation(t *testing.T) {
	cfg := fig8Config(strategy.NewWorkThreshold(20))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	payloads, err := runGridCtx(ctx, ReservationGrid(50_000_000, ReservationRow{Cfg: cfg}), 1, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 120*time.Millisecond {
		t.Errorf("cancellation took %v, want <= 100ms after the cancel signal", elapsed)
	}
	agg, err := MergeMonteCarloPayloads(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials%mcBlockSize != 0 {
		t.Errorf("partial aggregate accounted %d trials, want whole blocks", agg.Trials)
	}
	if agg.Trials > 0 && (math.IsNaN(agg.Saved.Mean()) || agg.Saved.Mean() < 0) {
		t.Errorf("partial mean saved work %g malformed", agg.Saved.Mean())
	}
}

func TestConfigValidateErrors(t *testing.T) {
	valid := fig8Config(strategy.NewWorkThreshold(20))
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutate := []func(*Config){
		func(c *Config) { c.R = 0 },
		func(c *Config) { c.R = math.NaN() },
		func(c *Config) { c.R = math.Inf(1) },
		func(c *Config) { c.Recovery = -1 },
		func(c *Config) { c.Recovery = math.NaN() },
		func(c *Config) { c.Faults = &fault.Plan{Crash: fault.ExpArrival{Rate: -0.5}} },
		func(c *Config) { c.Faults = &fault.Plan{Crash: fault.ExpArrival{Rate: math.Inf(1)}} },
		func(c *Config) { c.Task = nil },
		func(c *Config) { c.TaskDisc = dist.NewPoisson(3) }, // both task laws set
		func(c *Config) { c.Ckpt = nil },
		func(c *Config) { c.Strategy = nil },
		func(c *Config) { c.MaxTasks = -1 },
		func(c *Config) { c.Faults = &fault.Plan{Ckpt: fault.CkptBernoulli{P: 2}} },
	}
	for i, m := range mutate {
		c := fig8Config(strategy.NewWorkThreshold(20))
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted an invalid config", i)
		}
	}
}

func TestCampaignConfigValidateErrors(t *testing.T) {
	valid := faultyCampaignConfig(nil)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid campaign config rejected: %v", err)
	}
	for i, m := range []func(*CampaignConfig){
		func(c *CampaignConfig) { c.TotalWork = 0 },
		func(c *CampaignConfig) { c.TotalWork = -5 },
		func(c *CampaignConfig) { c.TotalWork = math.NaN() },
		func(c *CampaignConfig) { c.TotalWork = math.Inf(1) },
		func(c *CampaignConfig) { c.MaxReservations = -1 },
		func(c *CampaignConfig) { c.Reservation.R = math.NaN() },
	} {
		c := faultyCampaignConfig(nil)
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted an invalid campaign config", i)
		}
	}
}
