package sim

import (
	"context"
	"runtime"

	"reskit/internal/engine"
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

// Workers returns a sensible default worker count for Monte-Carlo runs.
// runtime.GOMAXPROCS(0) is documented to be at least 1, so no floor is
// needed.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// mcBlockSize is the number of trials bound to one rng substream. Work
// is partitioned into fixed blocks rather than per-worker shares so the
// result is bit-identical for any worker count: block b always uses
// stream b, and block aggregates are merged in block order.
const mcBlockSize = 2048

// MonteCarlo runs `trials` independent reservations of cfg on `workers`
// engine workers (Workers() when workers <= 0) and merges the results.
// Trials are partitioned into fixed-size blocks, each drawing from its
// own rng substream of seed, and block results are reduced in
// deterministic order — the aggregate depends only on (cfg, trials,
// seed), never on the worker count or goroutine scheduling.
func MonteCarlo(cfg Config, trials int, seed uint64, workers int) Aggregate {
	agg, _ := monteCarloRunner(context.Background(), cfg, trials, seed, workers, Run)
	return agg
}

// MonteCarloContext is MonteCarlo with cooperative cancellation: when ctx
// is cancelled (or its deadline passes), workers stop at the next trial
// boundary and the call returns the well-formed aggregate of every
// completed trial alongside ctx.Err(). Without cancellation the result
// is bit-identical to MonteCarlo and the error is nil.
func MonteCarloContext(ctx context.Context, cfg Config, trials int, seed uint64, workers int) (Aggregate, error) {
	return monteCarloRunner(ctx, cfg, trials, seed, workers, Run)
}

// MonteCarloOracle is MonteCarlo with the clairvoyant scheduler.
func MonteCarloOracle(cfg Config, trials int, seed uint64, workers int) Aggregate {
	agg, _ := monteCarloRunner(context.Background(), cfg, trials, seed, workers, RunOracle)
	return agg
}

func monteCarloRunner(ctx context.Context, cfg Config, trials int, seed uint64, workers int,
	run func(Config, *rng.Source) RunResult) (Aggregate, error) {

	cfg.validate()
	parts := make([]Aggregate, NumMonteCarloBlocks(trials))
	err := runBlocks(ctx, len(parts), seed, workers, func(b int, src *rng.Source, done <-chan struct{}) bool {
		var complete bool
		parts[b], complete = runMCBlock(cfg, trials, b, src, run, done)
		return complete
	})
	var total Aggregate
	for _, p := range parts {
		total.merge(p)
	}
	return total, err
}

// runBlocks is the worker pool behind every Monte-Carlo call: it drains
// numBlocks block jobs through engine.RunStream on `workers` workers
// (Workers() when workers <= 0), job b running block b on rng substream
// b of seed. block simulates one block and stores its typed partial in
// the caller's slot b, whether the block completed or done fired
// mid-block (it then returns false): the caller merges the slots in
// block order, so the aggregate is bit-identical for any worker count,
// and after a cancellation it covers every completed trial. The stream
// sink folds nothing and nothing is snapshotted — durable runs go
// through the engine with a checkpoint instead. The error is ctx.Err()
// after a cancellation.
func runBlocks(ctx context.Context, numBlocks int, seed uint64, workers int,
	block func(b int, src *rng.Source, done <-chan struct{}) (complete bool)) error {

	if numBlocks == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > numBlocks {
		workers = numBlocks
	}
	next := 0
	source := engine.SourceFunc(func() (engine.Job, bool) {
		if next == numBlocks {
			return engine.Job{}, false
		}
		b := next
		next++
		return engine.Job{
			Stream: uint64(b),
			Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
				if !block(b, src, ctx.Done()) {
					return engine.JobResult{}, interruptErr(ctx)
				}
				return engine.JobResult{}, nil
			},
		}, true
	})
	_, err := engine.RunStream(ctx, engine.StreamSpec{Source: source, Sink: nopSink{}, Seed: seed, Workers: workers})
	return err
}

// nopSink is runBlocks' stream sink: the partials live in the caller's
// per-block slots, so there is nothing to fold and no state to persist.
type nopSink struct{}

func (nopSink) Commit(int, []byte) (bool, error) { return false, nil }
func (nopSink) State() ([]byte, error)           { return nil, nil }
func (nopSink) Restore([]byte) error             { return nil }

// runMCBlock simulates the trials of block b ([b*mcBlockSize, ...)) on
// src and returns the block aggregate. cfg is received by value, so the
// per-trial index stamp for deterministic trace sampling never races
// other workers. complete is false when done fired mid-block — the
// partial tallies are still returned, but such a block must never be
// committed as durable state; only a completed block ticks the
// observer's block counter.
func runMCBlock(cfg Config, trials, b int, src *rng.Source,
	run func(Config, *rng.Source) RunResult, done <-chan struct{}) (agg Aggregate, complete bool) {

	lo := b * mcBlockSize
	hi := lo + mcBlockSize
	if hi > trials {
		hi = trials
	}
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
		rr := run(cfg, src)
		agg.add(rr)
		cfg.Obs.tickProgress(1)
		cfg.Obs.tickProgressWork(1, rr.Saved)
	}
	cfg.Obs.tickBlock()
	return agg, true
}
