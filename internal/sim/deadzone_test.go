package sim

import (
	"math"
	"testing"

	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/obs"
	"reskit/internal/quad"
	"reskit/internal/strategy"
)

// deadZoneRecorder passes decisions through and keeps the states the
// dynamic rule settled in its dead zone, with the integrand evaluations
// those decisions ran.
type deadZoneRecorder struct {
	s               strategy.Strategy
	deadZone, evals *obs.Counter
	states          []strategy.State
	evalsInDeadZone int64
}

func (r *deadZoneRecorder) Name() string { return r.s.Name() }

func (r *deadZoneRecorder) Decide(st strategy.State) strategy.Action {
	dz, ev := r.deadZone.Value(), r.evals.Value()
	a := r.s.Decide(st)
	if r.deadZone.Value() != dz {
		r.states = append(r.states, st)
		r.evalsInDeadZone += r.evals.Value() - ev
	}
	return a
}

// TestDeadZoneTiesAreExactCheckpoints runs the canonical gamma campaign
// (the e2ebench campaign-gamma instance) with the decision counters
// bound. Its reservations end in states where a checkpoint can no
// longer fit, so work*A and B are both below the dead-zone floor: every
// such state must be one where the exact rule checkpoints too, decided
// without a single integrand evaluation, and binding the counters must
// leave the aggregate bit-identical. No other decision of the run may
// leave the table.
func TestDeadZoneTiesAreExactCheckpoints(t *testing.T) {
	task := dist.Truncate(dist.NewGamma(6, 0.5), 0, math.Inf(1))
	ckpt := paperCkpt(5, 0.4)
	d := core.NewDynamic(29, task, ckpt)
	cfg := CampaignConfig{
		Reservation: Config{R: 29, Recovery: 1.5, Task: task, Ckpt: ckpt, Strategy: strategy.NewDynamic(d)},
		TotalWork:   500,
	}
	const trials = 4000
	bare := MonteCarloCampaign(cfg, trials, 3, 1)

	exact, deadZone, evals := new(obs.Counter), new(obs.Counter), new(obs.Counter)
	core.ObserveDecisions(exact, deadZone)
	quad.ObserveEvals(evals)
	rec := &deadZoneRecorder{s: cfg.Reservation.Strategy, deadZone: deadZone, evals: evals}
	observed := cfg
	observed.Reservation.Strategy = rec
	got := MonteCarloCampaign(observed, trials, 3, 1)
	core.ObserveDecisions(nil, nil)
	quad.ObserveEvals(nil)

	if got != bare {
		t.Fatalf("aggregate with decision counters differs:\n got  %+v\n want %+v", got, bare)
	}
	if len(rec.states) == 0 {
		t.Fatal("no dead-zone decision on the canonical gamma campaign")
	}
	if rec.evalsInDeadZone != 0 {
		t.Errorf("dead-zone decisions ran %d integrand evaluations", rec.evalsInDeadZone)
	}
	if exact.Value() != 0 {
		t.Errorf("%d decisions re-ran the exact integrals", exact.Value())
	}
	for _, st := range rec.states {
		budget := d.R - st.Elapsed
		ec := st.Work * ckpt.CDF(budget)
		e1 := quad.Kronrod(func(x float64) float64 {
			return (x + st.Work) * ckpt.CDF(budget-x) * task.PDF(x)
		}, 0, budget, 1e-300, 1e-12).Value
		if !(ec >= e1) {
			t.Errorf("dead-zone checkpoint at work %g elapsed %g, but exactly E(W_C) = %g < E(W_+1) = %g",
				st.Work, st.Elapsed, ec, e1)
		}
	}
	t.Logf("%d dead-zone decisions in %d trials", deadZone.Value(), trials)
}
