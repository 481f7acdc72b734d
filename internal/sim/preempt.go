package sim

import (
	"reskit/internal/core"
	"reskit/internal/rng"
	"reskit/internal/stats"
)

// PreemptibleAggregate summarizes a Monte-Carlo experiment for the
// Section 3 scenario.
type PreemptibleAggregate struct {
	Work      stats.Summary // saved work per trial (0 on checkpoint failure)
	Successes int64         // trials whose checkpoint completed in time
	Trials    int64
}

// SuccessRate returns the fraction of trials whose checkpoint completed.
func (a PreemptibleAggregate) SuccessRate() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Trials)
}

// MonteCarloPreemptible estimates E(W(X)) by simulation: `trials`
// independent reservations with the checkpoint started x before the end,
// in fixed blocks on their own substreams of seed, run by `workers`
// engine workers — the one-row PreemptibleGrid that cmd/simulate
// -preempt runs per policy.
func MonteCarloPreemptible(p *core.Preemptible, x float64, trials int, seed uint64, workers int) PreemptibleAggregate {
	return runGrid(PreemptibleGrid(trials, PreemptibleRow{P: p, X: x}), seed, workers, MergePreemptiblePayloads)
}

// preemptPartial accumulates one block's preemptible-trial sums.
type preemptPartial struct {
	work      stats.Summary
	successes int64
	trials    int64
}

// preemptTrial returns the per-trial sampler of the given policy: the
// fixed lead-time x, or (oracle) the clairvoyant plan that observes the
// realized checkpoint duration.
func preemptTrial(p *core.Preemptible, x float64, oracle bool) func(*rng.Source) (float64, bool) {
	if oracle {
		return func(src *rng.Source) (float64, bool) {
			c := p.C.Sample(src)
			if c > p.R {
				return 0, false
			}
			return p.R - c, true
		}
	}
	return func(src *rng.Source) (float64, bool) {
		c := p.C.Sample(src)
		if c <= x && x <= p.R {
			return p.R - x, true
		}
		return 0, false
	}
}

// runPreemptBlock simulates the trials of block b ([b*mcBlockSize, ...))
// on src. complete is false when done fired mid-block; such a block must
// never be committed as durable state.
func runPreemptBlock(trial func(*rng.Source) (float64, bool), trials, b int,
	src *rng.Source, done <-chan struct{}) (p preemptPartial, complete bool) {

	lo := b * mcBlockSize
	hi := lo + mcBlockSize
	if hi > trials {
		hi = trials
	}
	for i := lo; i < hi; i++ {
		if done != nil {
			select {
			case <-done:
				return p, false
			default:
			}
		}
		v, ok := trial(src)
		p.work.Add(v)
		if ok {
			p.successes++
		}
		p.trials++
	}
	return p, true
}

// merge folds one block's sums into the aggregate.
func (a *PreemptibleAggregate) merge(p *preemptPartial) {
	a.Work.Merge(p.work)
	a.Successes += p.successes
	a.Trials += p.trials
}
