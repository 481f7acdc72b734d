package sched

import (
	"math"
	"strings"
	"testing"

	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/fault"
	"reskit/internal/rng"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

func schedLaws() (task, ckpt dist.Continuous) {
	return dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)),
		dist.Truncate(dist.NewNormal(5, 0.4), 0, math.Inf(1))
}

func dynStrategy(r float64, task, ckpt dist.Continuous) strategy.Strategy {
	return strategy.NewDynamic(core.NewDynamic(r, task, ckpt))
}

func TestWaitModels(t *testing.T) {
	p := NewPowerLawWait(0.5, 1.2, 0.5)
	law30 := p.WaitLaw(30)
	law120 := p.WaitLaw(120)
	if !(law120.Mean() > law30.Mean()) {
		t.Errorf("wait mean should grow with R: %g vs %g", law30.Mean(), law120.Mean())
	}
	want := 0.5 * math.Pow(30, 1.2)
	if math.Abs(law30.Mean()-want) > 1e-9 {
		t.Errorf("mean %g want %g", law30.Mean(), want)
	}
	if !strings.Contains(p.String(), "Gamma") {
		t.Errorf("String %q", p.String())
	}

	c := ConstantWait{Law: dist.NewDeterministic(7)}
	if c.WaitLaw(10).Mean() != 7 || c.WaitLaw(1000).Mean() != 7 {
		t.Errorf("constant wait not constant")
	}
	if (NoWait{}).WaitLaw(5).Mean() != 0 {
		t.Errorf("NoWait should be zero")
	}
}

func TestPowerLawWaitValidation(t *testing.T) {
	cases := []func(){
		func() { NewPowerLawWait(0, 1, 0.5) },
		func() { NewPowerLawWait(1, -1, 0.5) },
		func() { NewPowerLawWait(1, 1, 0) },
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

func TestRunAccountsWaits(t *testing.T) {
	task, ckpt := schedLaws()
	cfg := Config{
		Campaign: sim.CampaignConfig{
			Reservation: sim.Config{
				R: 29, Recovery: 1.5, Task: task, Ckpt: ckpt,
				Strategy: dynStrategy(29, task, ckpt),
			},
			TotalWork: 100,
		},
		Wait: ConstantWait{Law: dist.NewDeterministic(10)},
	}
	res := Run(cfg, rng.New(3))
	if !res.Completed {
		t.Fatalf("campaign incomplete: %+v", res)
	}
	wantWait := 10 * float64(res.Reservations)
	if math.Abs(res.TotalWait-wantWait) > 1e-9 {
		t.Errorf("TotalWait %g want %g", res.TotalWait, wantWait)
	}
	if math.Abs(res.Makespan-(res.TotalWait+res.TimeUsed)) > 1e-9 {
		t.Errorf("makespan %g != wait %g + used %g", res.Makespan, res.TotalWait, res.TimeUsed)
	}
}

func TestRunNilWaitDefaultsToNoWait(t *testing.T) {
	task, ckpt := schedLaws()
	cfg := Config{
		Campaign: sim.CampaignConfig{
			Reservation: sim.Config{
				R: 29, Task: task, Ckpt: ckpt,
				Strategy: dynStrategy(29, task, ckpt),
			},
			TotalWork: 50,
		},
	}
	res := Run(cfg, rng.New(4))
	if res.TotalWait != 0 {
		t.Errorf("nil wait model should wait 0, got %g", res.TotalWait)
	}
}

func TestCompareLengthsWaitShapesChoice(t *testing.T) {
	task, ckpt := schedLaws()
	base := sim.Config{Recovery: 1.5, Task: task, Ckpt: ckpt}
	mk := func(r float64) strategy.Strategy { return dynStrategy(r, task, ckpt) }
	candidates := []float64{20, 80}
	const work = 300
	const trials = 30

	// Steep superlinear waits: short reservations should win on
	// makespan.
	steep := CompareLengths(base, work, NewPowerLawWait(0.02, 2.0, 0.3),
		candidates, mk, trials, 1)
	if !(steep[20] < steep[80]) {
		t.Errorf("steep waits should favor R=20: %v", steep)
	}

	// Flat constant waits: long reservations amortize the per-request
	// wait and should win.
	flat := CompareLengths(base, work, ConstantWait{Law: dist.NewDeterministic(15)},
		candidates, mk, trials, 1)
	if !(flat[80] < flat[20]) {
		t.Errorf("flat waits should favor R=80: %v", flat)
	}
}

func TestRunValidation(t *testing.T) {
	task, ckpt := schedLaws()
	defer func() {
		if recover() == nil {
			t.Errorf("non-positive TotalWork must panic")
		}
	}()
	Run(Config{
		Campaign: sim.CampaignConfig{
			Reservation: sim.Config{R: 29, Task: task, Ckpt: ckpt,
				Strategy: dynStrategy(29, task, ckpt)},
		},
	}, rng.New(1))
}

// TestRunMatchesSimCampaignUnderFaults: with NoWait, which draws no
// variate, Run's campaign result is sim.RunCampaign's field for field
// under a fault plan, the crash, failed-commit and revocation tallies
// and the reservation cap included.
func TestRunMatchesSimCampaignUnderFaults(t *testing.T) {
	task, ckpt := schedLaws()
	camp := sim.CampaignConfig{
		Reservation: sim.Config{
			R: 29, Recovery: 1.5, Task: task, Ckpt: ckpt,
			Strategy: dynStrategy(29, task, ckpt),
			Faults: &fault.Plan{
				Crash:  fault.ExpArrival{Rate: 0.05},
				Ckpt:   fault.CkptBernoulli{P: 0.1},
				Revoke: fault.ExpRevocation{Rate: 0.01},
			},
		},
		TotalWork: 300,
	}
	var faults int
	for i := uint64(0); i < 50; i++ {
		got := Run(Config{Campaign: camp, Wait: NoWait{}}, rng.NewStream(1, i)).CampaignResult
		want := sim.RunCampaign(camp, rng.NewStream(1, i))
		if got != want {
			t.Fatalf("trial %d:\n sched %+v\n sim   %+v", i, got, want)
		}
		faults += want.Crashes + want.CkptFaults + want.RevokedRes
	}
	if faults == 0 {
		t.Fatal("the fault plan never struck; the comparison checks nothing")
	}
}
