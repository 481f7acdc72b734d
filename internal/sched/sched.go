// Package sched models the platform side of the paper's setting: jobs
// obtain fixed-length reservations from a batch scheduler, and shorter
// reservations are easier to place ("it lowers the wait-time of the
// application, as the job scheduler can easily place a smaller
// reservation", Section 1). It provides queue-wait models parameterized
// by the requested length R, and an end-to-end campaign simulation whose
// metric is wall-clock makespan — waits plus machine time — rather than
// machine time alone. Combined with internal/planner, this closes the
// loop on the R trade-off the paper leaves to "many parameters".
package sched

import (
	"fmt"
	"math"

	"reskit/internal/dist"
	"reskit/internal/rng"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

// WaitModel yields the queue-wait law for a reservation request of
// length r.
type WaitModel interface {
	fmt.Stringer
	// WaitLaw returns the law of the wait time before a length-r
	// reservation starts.
	WaitLaw(r float64) dist.Continuous
}

// PowerLawWait models the empirical observation that wait times grow
// superlinearly with the requested slot size: the mean wait is
// Coeff * r^Exponent, Gamma-distributed with coefficient of variation
// CV.
type PowerLawWait struct {
	Coeff    float64 // scale of the mean wait
	Exponent float64 // growth of the mean wait with r
	CV       float64 // coefficient of variation of the wait
}

// NewPowerLawWait validates and returns the model.
func NewPowerLawWait(coeff, exponent, cv float64) PowerLawWait {
	if !(coeff > 0) || !(exponent >= 0) || !(cv > 0) ||
		math.IsNaN(coeff) || math.IsNaN(exponent) || math.IsNaN(cv) {
		panic(fmt.Sprintf("sched: PowerLawWait requires coeff > 0, exponent >= 0, cv > 0; got (%g, %g, %g)",
			coeff, exponent, cv))
	}
	return PowerLawWait{Coeff: coeff, Exponent: exponent, CV: cv}
}

// String implements WaitModel.
func (p PowerLawWait) String() string {
	return fmt.Sprintf("wait ~ Gamma(mean=%g*R^%g, cv=%g)", p.Coeff, p.Exponent, p.CV)
}

// WaitLaw implements WaitModel.
func (p PowerLawWait) WaitLaw(r float64) dist.Continuous {
	mean := p.Coeff * math.Pow(r, p.Exponent)
	k := 1 / (p.CV * p.CV)
	return dist.NewGamma(k, mean/k)
}

// ConstantWait waits according to a fixed law regardless of r.
type ConstantWait struct {
	Law dist.Continuous
}

// String implements WaitModel.
func (c ConstantWait) String() string { return fmt.Sprintf("wait ~ %v", c.Law) }

// WaitLaw implements WaitModel.
func (c ConstantWait) WaitLaw(float64) dist.Continuous { return c.Law }

// NoWait places every reservation immediately.
type NoWait struct{}

// String implements WaitModel.
func (NoWait) String() string { return "no wait" }

// WaitLaw implements WaitModel.
func (NoWait) WaitLaw(float64) dist.Continuous { return dist.NewDeterministic(0) }

// Config describes an end-to-end campaign with queue waits.
type Config struct {
	Campaign sim.CampaignConfig
	Wait     WaitModel
}

// Result extends the campaign result with wall-clock accounting.
type Result struct {
	sim.CampaignResult
	TotalWait float64 // time spent waiting in the queue
	Makespan  float64 // wall clock: waits + per-reservation machine occupancy
}

// Run simulates the campaign including queue waits. Each reservation
// request waits according to the model before starting; the job occupies
// the machine for the reservation's TimeUsed (a dropped reservation
// frees the job to request the next one early). Its campaign fields,
// fault tallies included, are those of sim.RunCampaign on the same
// stream when the waits draw no variate (NoWait).
func Run(cfg Config, r *rng.Source) Result {
	if cfg.Wait == nil {
		cfg.Wait = NoWait{}
	}
	if !(cfg.Campaign.TotalWork > 0) {
		panic(fmt.Sprintf("sched: TotalWork must be positive, got %g", cfg.Campaign.TotalWork))
	}

	res := Result{}
	maxRes := cfg.Campaign.MaxReservations
	if maxRes <= 0 {
		// sim.RunCampaign's auto cap: a generous multiple of the
		// zero-overhead lower bound.
		perRes := cfg.Campaign.Reservation.R - cfg.Campaign.Reservation.Recovery
		if perRes <= 0 {
			perRes = cfg.Campaign.Reservation.R
		}
		maxRes = int(20*cfg.Campaign.TotalWork/perRes) + 100
	}
	waitLaw := cfg.Wait.WaitLaw(cfg.Campaign.Reservation.R)

	for res.Reservations < maxRes && res.Committed < cfg.Campaign.TotalWork {
		wait := waitLaw.Sample(r)
		if wait < 0 {
			wait = 0
		}
		res.TotalWait += wait
		res.Makespan += wait

		rc := cfg.Campaign.Reservation
		if res.Reservations == 0 {
			rc.Recovery = 0
			rc.RecoveryLaw = nil
		}
		run := sim.Run(rc, r)
		res.Reservations++
		res.TimeReserved += rc.R
		res.TimeUsed += run.TimeUsed
		res.Makespan += run.TimeUsed
		res.Committed += run.Saved
		res.LostWork += run.Lost
		res.FailedCkpts += run.FailedCkpts
		res.CkptFaults += run.CkptFaults
		res.Crashes += run.Failures
		if run.Revoked {
			res.RevokedRes++
		}
		if run.Saved == 0 {
			res.StalledRounds++
		}
	}
	res.Completed = res.Committed >= cfg.Campaign.TotalWork
	return res
}

// CompareLengths runs `trials` campaigns for every candidate reservation
// length (sharing the task/checkpoint laws; mkStrategy builds the
// per-length decision policy, typically the dynamic rule for that R) and
// returns the mean wall-clock makespan for each — the queue-aware answer
// to "which R should I ask for?".
func CompareLengths(base sim.Config, totalWork float64, wait WaitModel,
	candidates []float64, mkStrategy func(r float64) strategy.Strategy,
	trials int, seed uint64) map[float64]float64 {

	out := make(map[float64]float64, len(candidates))
	for i, r := range candidates {
		resCfg := base
		resCfg.R = r
		resCfg.Strategy = mkStrategy(r)
		cfg := Config{
			Campaign: sim.CampaignConfig{
				Reservation: resCfg,
				TotalWork:   totalWork,
			},
			Wait: wait,
		}
		var sum float64
		for t := 0; t < trials; t++ {
			src := rng.NewStream(seed+uint64(i)*1000, uint64(t))
			sum += Run(cfg, src).Makespan
		}
		out[r] = sum / float64(trials)
	}
	return out
}
