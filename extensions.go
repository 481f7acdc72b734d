package reskit

import (
	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/planner"
	"reskit/internal/sched"
)

// Additional distribution families beyond the four laws the paper works
// out explicitly. All of them flow through the generic numerical
// optimizer of the preemptible scenario and through the simulator.

// Triangular returns the triangular law on [a, b] with mode m — the
// natural law when only (min, typical, max) checkpoint estimates exist.
func Triangular(a, m, b float64) dist.Triangular { return dist.NewTriangular(a, m, b) }

// Pareto returns the heavy-tailed Pareto law with scale xm and shape
// alpha; truncate it to model contended-filesystem checkpoint times.
func Pareto(xm, alpha float64) dist.Pareto { return dist.NewPareto(xm, alpha) }

// Mixture returns the weighted mixture of the given laws (weights are
// normalized) — e.g. a bimodal fast/slow checkpoint model.
func Mixture(components []Continuous, weights []float64) *dist.Mixture {
	return dist.NewMixture(components, weights)
}

// Affine returns scale*X + shift for a base law X — the physical
// checkpoint model C = payload*inverseBandwidth + latency.
func Affine(base Continuous, scale, shift float64) dist.Affine {
	return dist.NewAffine(base, scale, shift)
}

// --- General (heterogeneous) instance of Section 4.1 / Section 5 ---

// TaskSpec pairs one task's duration law with the checkpoint law that
// applies at its end.
type TaskSpec = core.TaskSpec

// Heterogeneous is the general instance sketched in the paper's
// conclusion: a finite chain with per-task duration and checkpoint laws,
// solved by the same dynamic rule.
type Heterogeneous = core.Heterogeneous

// ErrChainExhausted is returned by Heterogeneous.ShouldCheckpoint past
// the end of the chain.
var ErrChainExhausted = core.ErrChainExhausted

// NewHeterogeneous builds the general instance for reservation length r.
func NewHeterogeneous(r float64, tasks []TaskSpec) *Heterogeneous {
	return core.NewHeterogeneous(r, tasks)
}

// StaticHeteroHeuristic approximates the (exactly intractable) static
// problem for the general instance with moment-matched Normal partial
// sums; it returns the task count to run before the first checkpoint and
// the approximate expected saved work.
func StaticHeteroHeuristic(h *Heterogeneous) (nOpt int, expWork float64) {
	return core.StaticHeteroHeuristic(h)
}

// --- Exact dynamic-programming reference solver ---

// DP is the discretized full-horizon dynamic program for the workflow
// problem — the exact optimum that upper-bounds the paper's one-step
// lookahead rule.
type DP = core.DP

// DPSolution reports the solved dynamic program (optimal value, policy
// threshold, value function).
type DPSolution = core.DPSolution

// NewDP builds the dynamic program with the given grid resolution
// (steps < 16 selects a 2048-step default).
func NewDP(r float64, task, ckpt Continuous, steps int) *DP {
	return core.NewDP(r, task, ckpt, steps)
}

// --- Reservation-length planning (one level above the paper) ---

// PlannerConfig describes the choose-R problem: which reservation length
// should the user request, given the workload laws and a platform cost
// model?
type PlannerConfig = planner.Config

// PlannerCostModel prices a campaign (per-reservation overhead,
// pay-per-use vs pay-per-reservation billing).
type PlannerCostModel = planner.CostModel

// PlannerOption is one evaluated candidate reservation length.
type PlannerOption = planner.Option

// PlanReservationLength evaluates candidate reservation lengths by
// deterministic Monte-Carlo campaigns under the Section 4.3 dynamic
// strategy and returns the frontier sorted best-first by work per unit
// cost.
func PlanReservationLength(cfg PlannerConfig) ([]PlannerOption, error) {
	return planner.Plan(cfg)
}

// --- Queue-aware wall-clock simulation (platform side of Section 1) ---

// WaitModel yields the queue-wait law for a reservation request of
// length r — shorter reservations are easier to place.
type WaitModel = sched.WaitModel

// PowerLawWait models mean waits growing like coeff * R^exponent with a
// Gamma-shaped distribution of the given coefficient of variation.
func PowerLawWait(coeff, exponent, cv float64) WaitModel {
	return sched.NewPowerLawWait(coeff, exponent, cv)
}

// ConstantWait waits by a fixed law regardless of the requested length.
func ConstantWait(law Continuous) WaitModel { return sched.ConstantWait{Law: law} }

// SchedConfig describes an end-to-end campaign including queue waits.
type SchedConfig = sched.Config

// SchedResult extends the campaign result with wall-clock accounting
// (TotalWait, Makespan).
type SchedResult = sched.Result

// RunWithQueue simulates a multi-reservation campaign including the
// scheduler's queue waits.
func RunWithQueue(cfg SchedConfig, r *RNG) SchedResult { return sched.Run(cfg, r) }

// CompareReservationLengths returns the mean wall-clock makespan of the
// campaign for every candidate reservation length under the given wait
// model; mkStrategy builds the per-length checkpoint policy.
func CompareReservationLengths(base SimConfig, totalWork float64, wait WaitModel,
	candidates []float64, mkStrategy func(r float64) Strategy,
	trials int, seed uint64) map[float64]float64 {
	return sched.CompareLengths(base, totalWork, wait, candidates, mkStrategy, trials, seed)
}

// Beta returns the Beta(alpha, beta) law on [0, 1].
func Beta(alpha, beta float64) dist.Beta { return dist.NewBeta(alpha, beta) }

// BetaOn returns Beta(alpha, beta) rescaled to [lo, hi] — a flexible
// bounded-support checkpoint-duration model whose support is already the
// [a, b] of Section 3 (no truncation needed).
func BetaOn(alpha, beta, lo, hi float64) dist.Affine { return dist.NewBetaOn(alpha, beta, lo, hi) }

// MultiDP is the exact (discretized) solver for the Section 4.4
// multi-checkpoint question: when commits may repeat inside one
// reservation, what is the optimal schedule worth?
type MultiDP = core.MultiDP

// MultiDPSolution reports the multi-checkpoint optimum.
type MultiDPSolution = core.MultiDPSolution

// NewMultiDP builds the two-dimensional dynamic program (steps < 16
// selects a 256-step default; cost grows as steps^3).
func NewMultiDP(r float64, task, ckpt Continuous, steps int) *MultiDP {
	return core.NewMultiDP(r, task, ckpt, steps)
}
