package sim

import (
	"reskit/internal/rng"
	"reskit/internal/stats"
)

// Aggregate accumulates the distributions of the per-run metrics over a
// Monte-Carlo experiment.
type Aggregate struct {
	Saved       stats.Summary // committed work per reservation
	Lost        stats.Summary // lost work per reservation
	Tasks       stats.Summary // tasks completed per reservation
	Checkpoints stats.Summary // successful checkpoints per reservation
	Failures    stats.Summary // fail-stop errors per reservation
	CkptFaults  stats.Summary // failed checkpoint commits per reservation (injected faults)
	TimeUsed    stats.Summary // machine time consumed per reservation
	FailedRuns  int64         // runs with at least one failed checkpoint
	RevokedRuns int64         // runs whose reservation was revoked early
	ZeroRuns    int64         // runs that saved no work at all
	Trials      int64
}

// merge folds another aggregate into a.
func (a *Aggregate) merge(o Aggregate) {
	a.Saved.Merge(o.Saved)
	a.Lost.Merge(o.Lost)
	a.Tasks.Merge(o.Tasks)
	a.Checkpoints.Merge(o.Checkpoints)
	a.Failures.Merge(o.Failures)
	a.CkptFaults.Merge(o.CkptFaults)
	a.TimeUsed.Merge(o.TimeUsed)
	a.FailedRuns += o.FailedRuns
	a.RevokedRuns += o.RevokedRuns
	a.ZeroRuns += o.ZeroRuns
	a.Trials += o.Trials
}

// add folds one run into the aggregate.
func (a *Aggregate) add(r RunResult) {
	a.Saved.Add(r.Saved)
	a.Lost.Add(r.Lost)
	a.Tasks.Add(float64(r.Tasks))
	a.Checkpoints.Add(float64(r.Checkpoints))
	a.Failures.Add(float64(r.Failures))
	a.CkptFaults.Add(float64(r.CkptFaults))
	a.TimeUsed.Add(r.TimeUsed)
	if r.FailedCkpts > 0 {
		a.FailedRuns++
	}
	if r.Revoked {
		a.RevokedRuns++
	}
	if r.Saved == 0 {
		a.ZeroRuns++
	}
	a.Trials++
}

// mcBlockSize is the number of trials bound to one rng substream. Work
// is partitioned into fixed blocks rather than per-worker shares so the
// result is bit-identical for any worker count: block b always uses
// stream b, and block aggregates are merged in block order.
const mcBlockSize = 2048

// MonteCarlo runs `trials` independent reservations of cfg on `workers`
// engine workers (all CPUs when workers <= 0) and merges the results: it
// runs the one-row ReservationGrid of cfg, the grid cmd/simulate runs
// per strategy. Trials are partitioned into fixed-size blocks, each
// drawing from its own rng substream of seed, and block results are
// reduced in deterministic order — the aggregate depends only on (cfg,
// trials, seed), never on the worker count or goroutine scheduling. It
// panics on an invalid cfg.
func MonteCarlo(cfg Config, trials int, seed uint64, workers int) Aggregate {
	return runGrid(ReservationGrid(trials, ReservationRow{Cfg: cfg}), seed, workers, MergeMonteCarloPayloads)
}

// MonteCarloOracle is MonteCarlo with the clairvoyant scheduler.
func MonteCarloOracle(cfg Config, trials int, seed uint64, workers int) Aggregate {
	return runGrid(ReservationGrid(trials, ReservationRow{Cfg: cfg, Oracle: true}), seed, workers, MergeMonteCarloPayloads)
}

// runMCBlock simulates the trials of block b ([b*mcBlockSize, ...)) on
// src, under the clairvoyant RunOracle when oracle is set, and returns
// the block aggregate. cfg must be valid: the strategy-driven trials run
// on runReservation with the task cap resolved once per block, as a
// campaign's reservations do. cfg is received by value, so the
// per-trial index stamp for deterministic trace sampling never races
// other workers. complete is false when done fired mid-block — the
// partial tallies are still returned, but such a block must never be
// committed as durable state; only a completed block ticks the
// observer's block counter.
func runMCBlock(cfg Config, trials, b int, src *rng.Source, oracle bool, done <-chan struct{}) (agg Aggregate, complete bool) {
	lo := b * mcBlockSize
	hi := min(lo+mcBlockSize, trials)
	taskCap := cfg.maxTasks()
	tracing := cfg.Obs != nil && cfg.Obs.Trace != nil
	for i := lo; i < hi; i++ {
		if done != nil {
			select {
			case <-done:
				return agg, false
			default:
			}
		}
		if tracing {
			cfg.trial = int64(i)
		}
		var rr RunResult
		if oracle {
			rr = RunOracle(cfg, src)
		} else {
			rr = runReservation(&cfg, src, taskCap, false)
		}
		agg.add(rr)
		cfg.Obs.tickProgress(1)
		cfg.Obs.tickProgressWork(1, rr.Saved)
	}
	cfg.Obs.tickBlock()
	return agg, true
}
