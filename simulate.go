package reskit

import (
	"reskit/internal/core"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

// Strategy decides, at each task boundary, whether to continue,
// checkpoint, or drop the rest of the reservation.
type Strategy = strategy.Strategy

// StrategyState is the observable state handed to a Strategy.
type StrategyState = strategy.State

// Action is a strategy decision (ActionContinue, ActionCheckpoint,
// ActionStop).
type Action = strategy.Action

// Strategy decisions.
const (
	ActionContinue   = strategy.Continue
	ActionCheckpoint = strategy.Checkpoint
	ActionStop       = strategy.Stop
)

// StaticStrategy checkpoints after exactly n tasks (use the NOpt of
// Static.Optimize).
func StaticStrategy(n int) Strategy { return strategy.NewStatic(n) }

// DynamicStrategy applies the paper's dynamic rule through a Dynamic
// problem instance.
func DynamicStrategy(d *core.Dynamic) Strategy { return strategy.NewDynamic(d) }

// PessimisticStrategy continues only while a worst-case task plus a
// worst-case checkpoint still fit — the risk-free baseline of the paper.
func PessimisticStrategy(xMax, cMax float64) Strategy { return strategy.NewPessimistic(xMax, cMax) }

// ThresholdStrategy checkpoints once the uncommitted work reaches w
// (e.g. the Intersection point of the dynamic analysis).
func ThresholdStrategy(w float64) Strategy { return strategy.NewWorkThreshold(w) }

// NeverStrategy runs to the end of the reservation without ever
// checkpointing (saves nothing; the comparison floor).
func NeverStrategy() Strategy { return strategy.Never{} }

// SimConfig describes one simulated reservation (see sim.Config).
type SimConfig = sim.Config

// AfterPolicy selects what happens after a successful checkpoint
// (Section 4.4): DropReservation or ContinueExecution.
type AfterPolicy = sim.AfterPolicy

// After-checkpoint policies.
const (
	DropReservation   = sim.DropReservation
	ContinueExecution = sim.ContinueExecution
)

// RunResult reports one simulated reservation.
type RunResult = sim.RunResult

// SimAggregate reports a Monte-Carlo experiment over many reservations.
type SimAggregate = sim.Aggregate

// Simulate runs one reservation with the given generator.
func Simulate(cfg SimConfig, r *RNG) RunResult { return sim.Run(cfg, r) }

// MonteCarlo runs trials independent reservations on the run engine's
// workers (0 = all CPUs), one job per fixed block of trials; results
// are deterministic in (cfg, trials, seed) regardless of the worker
// count.
func MonteCarlo(cfg SimConfig, trials int, seed uint64, workers int) SimAggregate {
	return sim.MonteCarlo(cfg, trials, seed, workers)
}

// MonteCarloOracle is MonteCarlo under the clairvoyant scheduler.
func MonteCarloOracle(cfg SimConfig, trials int, seed uint64, workers int) SimAggregate {
	return sim.MonteCarloOracle(cfg, trials, seed, workers)
}

// PreemptibleAggregate reports a Monte-Carlo experiment for the
// preemptible scenario.
type PreemptibleAggregate = sim.PreemptibleAggregate

// MonteCarloPreemptible estimates E(W(X)) by simulation for a checkpoint
// started x seconds before the end.
func MonteCarloPreemptible(p *Preemptible, x float64, trials int, seed uint64, workers int) PreemptibleAggregate {
	return sim.MonteCarloPreemptible(p, x, trials, seed, workers)
}

// CampaignConfig describes a multi-reservation execution of an
// application with a known total work (Sections 1-2).
type CampaignConfig = sim.CampaignConfig

// CampaignResult reports one campaign.
type CampaignResult = sim.CampaignResult

// RunCampaign simulates a whole multi-reservation campaign.
func RunCampaign(cfg CampaignConfig, r *RNG) CampaignResult { return sim.RunCampaign(cfg, r) }

// CampaignAggregate averages the headline metrics of a Monte-Carlo
// campaign experiment.
type CampaignAggregate = sim.CampaignAggregate

// MonteCarloCampaign runs trials independent campaigns on workers run
// engine workers (all CPUs when workers <= 0). The aggregate is
// bit-identical for any worker count: trials form fixed blocks, each
// block is one engine job on its own rng substream, and block sums are
// merged in block order.
func MonteCarloCampaign(cfg CampaignConfig, trials int, seed uint64, workers int) CampaignAggregate {
	return sim.MonteCarloCampaign(cfg, trials, seed, workers)
}

// PeriodicStrategy checkpoints every time the uncommitted work reaches
// the period p — the classical policy for failure-prone execution.
func PeriodicStrategy(p float64) Strategy { return strategy.NewPeriodic(p) }

// YoungDalyStrategy returns the periodic policy with the first-order
// Young/Daly period sqrt(2 * mtbf * meanCkpt) — the baseline the paper's
// related work cites for failure-prone platforms. Combine it with a
// SimConfig.Faults crash process of that MTBF, such as
// CrashExponential(1/mtbf) (the paper's Section 5 future-work setting).
func YoungDalyStrategy(mtbf, meanCkpt float64) Strategy {
	return strategy.NewYoungDaly(mtbf, meanCkpt)
}
