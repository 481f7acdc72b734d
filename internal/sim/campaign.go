package sim

import (
	"fmt"
	"math"

	"reskit/internal/rng"
)

// CampaignConfig describes a multi-reservation execution of an iterative
// application with a known total amount of work, the setting motivating
// the paper (Sections 1 and 2): the application is too long for a single
// reservation, so it runs as a series of fixed-length reservations, each
// starting with a recovery of the last committed checkpoint and ending
// with a checkpoint decided by the configured strategy.
type CampaignConfig struct {
	Reservation     Config  // per-reservation setup; Recovery applies from the 2nd reservation on
	TotalWork       float64 // work needed to complete the application
	MaxReservations int     // safety cap (0 = auto)
}

// Validate checks the campaign parameters and the embedded reservation
// configuration, returning a descriptive error instead of the silent
// infinite or NaN campaign that non-finite or non-positive inputs used
// to produce. RunCampaign panics on invalid configurations; call
// Validate first when the configuration comes from untrusted input.
func (c *CampaignConfig) Validate() error {
	if !(c.TotalWork > 0) || math.IsInf(c.TotalWork, 0) { // !(NaN > 0) is true
		return fmt.Errorf("sim: campaign TotalWork must be positive and finite, got %g", c.TotalWork)
	}
	if c.MaxReservations < 0 {
		return fmt.Errorf("sim: campaign MaxReservations must be >= 0, got %d", c.MaxReservations)
	}
	return c.Reservation.Validate()
}

// validate panics on structurally invalid configurations.
func (c *CampaignConfig) validate() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
}

// CampaignResult reports a full multi-reservation campaign.
type CampaignResult struct {
	Completed     bool    // the application committed TotalWork
	Reservations  int     // reservations consumed
	Committed     float64 // total committed work
	TimeReserved  float64 // Reservations * R
	TimeUsed      float64 // total machine time actually used
	LostWork      float64 // work executed but never committed
	FailedCkpts   int     // checkpoints cut by reservation ends
	CkptFaults    int     // checkpoint attempts that completed but failed to commit (injected faults)
	Crashes       int     // fail-stop errors across all reservations
	RevokedRes    int     // reservations revoked before their nominal end
	StalledRounds int     // reservations that committed no work
}

// Utilization returns committed work divided by reserved time — the
// fraction of the paid-for allocation converted into saved progress.
func (c CampaignResult) Utilization() float64 {
	if c.TimeReserved == 0 {
		return 0
	}
	return c.Committed / c.TimeReserved
}

// RunCampaign simulates the whole campaign with the given generator.
func RunCampaign(cfg CampaignConfig, r *rng.Source) CampaignResult {
	res, _ := runCampaign(&cfg, r, nil)
	return res
}

// runCampaign is RunCampaign with an optional cancellation channel: when
// done is closed, the campaign stops cleanly at the next reservation
// boundary and reports interrupted = true. The partial result is
// well-formed (all sums cover exactly the reservations that ran).
func runCampaign(cfg *CampaignConfig, r *rng.Source, done <-chan struct{}) (res CampaignResult, interrupted bool) {
	cfg.validate()
	rc := &cfg.Reservation
	taskCap := rc.maxTasks()

	maxRes := cfg.MaxReservations
	if maxRes <= 0 {
		// Auto cap: generous multiple of the zero-overhead lower bound.
		perRes := cfg.Reservation.R - cfg.Reservation.Recovery
		if perRes <= 0 {
			perRes = cfg.Reservation.R
		}
		maxRes = int(20*cfg.TotalWork/perRes) + 100
	}

	for res.Reservations < maxRes && res.Committed < cfg.TotalWork {
		if done != nil {
			select {
			case <-done:
				return res, true
			default:
			}
		}
		// Nothing to recover at the very first reservation.
		run := runReservation(rc, r, taskCap, res.Reservations == 0)
		res.Reservations++
		res.TimeReserved += rc.R
		res.TimeUsed += run.TimeUsed
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
	res.Completed = res.Committed >= cfg.TotalWork
	return res, false
}

// CampaignAggregate averages the headline metrics of a Monte-Carlo
// campaign experiment.
type CampaignAggregate struct {
	Reservations   float64 // mean reservations to completion
	Utilization    float64 // mean utilization
	LostWork       float64 // mean lost work
	CkptFaults     float64 // mean failed checkpoint commits (injected faults)
	Crashes        float64 // mean fail-stop errors
	RevokedRes     float64 // mean revoked reservations
	CompletionRate float64 // fraction of trials that committed TotalWork
	CompletedAll   bool    // every trial completed
	Trials         int     // trials accounted (fewer than requested after cancellation)
}

// campaignBlockSize is the number of campaign trials bound to one rng
// substream. A campaign is one or two orders of magnitude heavier than a
// single reservation, so blocks are much smaller than the per-run
// mcBlockSize; as there, fixed blocks (block b always draws from stream
// b, partial sums merged in block order) make the aggregate bit-identical
// for any worker count.
const campaignBlockSize = 32

// campaignPartial accumulates one block's running sums.
type campaignPartial struct {
	res, util, lost     float64
	ckptFaults, crashes float64
	revoked             float64
	completed           int
	trials              int
}

// MonteCarloCampaign runs `trials` independent campaigns of cfg on
// `workers` engine workers (all CPUs when workers <= 0) and averages the
// headline metrics: it runs the CampaignGrid of cfg, the grid
// cmd/simulate -campaign and cmd/distrun run. Trials are partitioned
// into fixed-size blocks, each drawing from its own rng substream of
// seed, and block sums are reduced in deterministic order — the
// aggregate depends only on (cfg, trials, seed), never on the worker
// count or goroutine scheduling. It panics on an invalid cfg.
func MonteCarloCampaign(cfg CampaignConfig, trials int, seed uint64, workers int) CampaignAggregate {
	return runGrid(CampaignGrid(cfg, trials), seed, workers, MergeCampaignPayloads)
}

// runCampaignBlock simulates the campaign trials of block b
// ([b*campaignBlockSize, ...)) on src and returns the block's running
// sums. complete is false when done fired mid-campaign: the sums then
// cover the trials that finished, and such a block must never be
// committed as durable state, nor counted as a completed block.
func runCampaignBlock(cfg CampaignConfig, trials, b int, src *rng.Source, done <-chan struct{}) (p campaignPartial, complete bool) {
	lo := b * campaignBlockSize
	n := min(campaignBlockSize, trials-lo)
	var rs [campaignBlockSize]CampaignResult
	ran := runCampaignTrials(cfg, lo, rs[:n], src, done)
	for i := range rs[:ran] {
		p.addTrial(&rs[i])
	}
	return p, ran == n
}

// runCampaignTrials is the trial loop of every campaign block: it runs
// the campaigns of trials lo, lo+1, ... on src into rs, in trial order,
// and returns how many ran — fewer than len(rs) when done fired
// mid-campaign. Callers fold what they need from rs. cfg is received by
// value, so the per-trial index stamp for deterministic trace sampling
// never races other workers.
func runCampaignTrials(cfg CampaignConfig, lo int, rs []CampaignResult, src *rng.Source, done <-chan struct{}) int {
	ob := cfg.Reservation.Obs
	tracing := ob != nil && ob.Trace != nil
	for k := range rs {
		if tracing {
			cfg.Reservation.trial = int64(lo + k)
		}
		r, interrupted := runCampaign(&cfg, src, done)
		if interrupted {
			return k
		}
		ob.tickCampaign()
		ob.tickProgress(1)
		ob.tickProgressWork(int64(r.Reservations), r.Committed)
		rs[k] = r
	}
	ob.tickBlock()
	return len(rs)
}

// addTrial folds one campaign's result into p.
func (p *campaignPartial) addTrial(r *CampaignResult) {
	p.res += float64(r.Reservations)
	p.util += r.Utilization()
	p.lost += r.LostWork
	p.ckptFaults += float64(r.CkptFaults)
	p.crashes += float64(r.Crashes)
	p.revoked += float64(r.RevokedRes)
	if r.Completed {
		p.completed++
	}
	p.trials++
}

// add folds another block's running sums into p.
func (p *campaignPartial) add(o campaignPartial) {
	p.res += o.res
	p.util += o.util
	p.lost += o.lost
	p.ckptFaults += o.ckptFaults
	p.crashes += o.crashes
	p.revoked += o.revoked
	p.completed += o.completed
	p.trials += o.trials
}

// aggregate turns summed block partials into the mean aggregate; an
// empty sum yields the zero aggregate.
func (p *campaignPartial) aggregate() CampaignAggregate {
	agg := CampaignAggregate{Trials: p.trials}
	if p.trials == 0 {
		return agg
	}
	n := float64(p.trials)
	agg.Reservations = p.res / n
	agg.Utilization = p.util / n
	agg.LostWork = p.lost / n
	agg.CkptFaults = p.ckptFaults / n
	agg.Crashes = p.crashes / n
	agg.RevokedRes = p.revoked / n
	agg.CompletionRate = float64(p.completed) / n
	agg.CompletedAll = p.completed == p.trials
	return agg
}
