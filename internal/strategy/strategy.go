// Package strategy defines the checkpoint-decision policies that the
// reservation simulator (internal/sim) can execute at task boundaries,
// and the reference policies the paper's evaluation compares:
//
//   - Dynamic: the paper's Section 4.3 rule, checkpointing as soon as the
//     expected saved work of checkpointing now beats running one more task;
//   - Static: the paper's Section 4.2 rule, checkpointing after a fixed
//     n_opt tasks computed before execution;
//   - Pessimistic: the risk-free baseline that budgets a worst-case task
//     plus a worst-case checkpoint before continuing — the strategy the
//     paper's conclusion singles out as doubly wasteful for workflows;
//   - WorkThreshold: checkpoint once accumulated work crosses a fixed
//     threshold (e.g. the W_int intersection of Figures 8-10);
//   - Never: run tasks until the reservation ends without checkpointing
//     (lower bound — it saves nothing).
//
// Strategies are stateless with respect to a single reservation run: all
// run state arrives through State, so one strategy value can be shared by
// concurrent simulations.
package strategy

import (
	"fmt"

	"reskit/internal/core"
)

// Action is a checkpoint decision at a task boundary.
type Action int

const (
	// Continue runs one more task before the next decision.
	Continue Action = iota
	// Checkpoint starts a checkpoint now.
	Checkpoint
	// Stop abandons the rest of the reservation without checkpointing
	// (meaningful only after an earlier successful checkpoint, see §4.4).
	Stop
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case Continue:
		return "continue"
	case Checkpoint:
		return "checkpoint"
	case Stop:
		return "stop"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// State is everything a policy may observe at a task boundary.
type State struct {
	R          float64 // reservation length (recovery already deducted)
	Elapsed    float64 // reservation time consumed so far
	Work       float64 // uncommitted work since the last successful checkpoint
	TasksDone  int     // tasks completed since the last successful checkpoint
	Committed  float64 // work already saved by earlier checkpoints this reservation
	Checkpoint int     // number of successful checkpoints so far

	// FailedAttempts counts checkpoint attempts since the last successful
	// commit that ran to completion but failed (injected checkpoint
	// faults, see internal/fault). Always zero in the paper's
	// failure-free model; a user strategy may read it, for instance to
	// budget commit retries.
	FailedAttempts int
}

// Remaining returns the reservation time left.
func (s State) Remaining() float64 { return s.R - s.Elapsed }

// Strategy decides what to do at each task boundary.
type Strategy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the action to take in the given state.
	Decide(s State) Action
}

// Static checkpoints after exactly N completed tasks — the paper's
// Section 4.2 policy with N = n_opt from core.Static.Optimize.
type Static struct {
	N int
}

// NewStatic returns the fixed-count policy. It panics unless n >= 1.
func NewStatic(n int) Static {
	s, err := TryNewStatic(n)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Name implements Strategy.
func (s Static) Name() string { return fmt.Sprintf("static(n=%d)", s.N) }

// Decide implements Strategy.
func (s Static) Decide(st State) Action {
	if st.TasksDone >= s.N {
		return Checkpoint
	}
	return Continue
}

// Dynamic applies the paper's Section 4.3 rule through a core.Dynamic
// problem instance. For the common first-checkpoint case (elapsed time
// equals uncommitted work) the rule reduces to comparing the work against
// the precomputed intersection point W_int of Figures 8-10, avoiding one
// numerical integration per task boundary in large Monte-Carlo runs; the
// full rule is evaluated whenever an earlier checkpoint has decoupled
// elapsed time from work, or when no intersection exists.
type Dynamic struct {
	D *core.Dynamic

	wInt    float64 // cached intersection point
	hasWInt bool
}

// NewDynamic wraps a dynamic problem as a policy.
func NewDynamic(d *core.Dynamic) Dynamic {
	pol, err := TryNewDynamic(d)
	if err != nil {
		panic(err.Error())
	}
	return pol
}

// Name implements Strategy.
func (d Dynamic) Name() string { return "dynamic" }

// Decide implements Strategy. It uses the generalized rule so that the
// decision stays correct when execution continues after an earlier
// checkpoint (elapsed > work).
func (d Dynamic) Decide(st State) Action {
	if st.TasksDone == 0 && st.Work == 0 {
		// Nothing to save yet; a checkpoint would commit zero work.
		if st.Remaining() <= 0 {
			return Stop
		}
		return Continue
	}
	if d.hasWInt && st.Elapsed == st.Work {
		if st.Work >= d.wInt {
			return Checkpoint
		}
		return Continue
	}
	if d.D.ShouldCheckpointAt(st.Work, st.Elapsed) {
		return Checkpoint
	}
	return Continue
}

// Pessimistic is the risk-free policy: continue only while a worst-case
// task followed by a worst-case checkpoint is guaranteed to fit in the
// remaining time. XMax and CMax are the (quantile-based) worst cases.
type Pessimistic struct {
	XMax float64 // worst-case task duration
	CMax float64 // worst-case checkpoint duration
}

// NewPessimistic returns the worst-case-budgeting policy.
func NewPessimistic(xMax, cMax float64) Pessimistic {
	p, err := TryNewPessimistic(xMax, cMax)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Name implements Strategy.
func (p Pessimistic) Name() string { return "pessimistic" }

// Decide implements Strategy.
func (p Pessimistic) Decide(st State) Action {
	if st.Elapsed+p.XMax+p.CMax <= st.R {
		return Continue
	}
	if st.Work > 0 {
		return Checkpoint
	}
	return Stop
}

// WorkThreshold checkpoints once the uncommitted work reaches W — e.g.
// the intersection point W_int of the dynamic analysis, precomputed so
// the per-boundary decision is O(1).
type WorkThreshold struct {
	W float64
}

// NewWorkThreshold returns the threshold policy.
func NewWorkThreshold(w float64) WorkThreshold {
	t, err := TryNewWorkThreshold(w)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// Name implements Strategy.
func (t WorkThreshold) Name() string { return fmt.Sprintf("threshold(W=%.4g)", t.W) }

// Decide implements Strategy.
func (t WorkThreshold) Decide(st State) Action {
	if st.Work >= t.W {
		return Checkpoint
	}
	return Continue
}

// Never runs tasks until the reservation ends and never checkpoints. It
// saves nothing and serves as the floor in comparisons.
type Never struct{}

// Name implements Strategy.
func (Never) Name() string { return "never" }

// Decide implements Strategy.
func (Never) Decide(State) Action { return Continue }

// Periodic checkpoints every time the uncommitted work reaches the
// period P — the classical approach for failure-prone execution, with
// P given by the Young/Daly formula. The paper's related work contrasts
// this regime (checkpoints against random fail-stop errors) with its own
// (one checkpoint against the deterministic reservation end); Periodic
// is the right policy when sim.Config.Faults injects crashes and serves
// as the cited baseline [Young 1974; Daly 2006].
type Periodic struct {
	P float64
}

// NewPeriodic returns the fixed-period policy. It panics unless p > 0.
func NewPeriodic(p float64) Periodic {
	pp, err := TryNewPeriodic(p)
	if err != nil {
		panic(err.Error())
	}
	return pp
}

// NewYoungDaly returns the periodic policy with the first-order
// Young/Daly period sqrt(2 * mtbf * meanCkpt), where mtbf is the mean
// time between fail-stop errors and meanCkpt the mean checkpoint
// duration.
func NewYoungDaly(mtbf, meanCkpt float64) Periodic {
	p, err := TryNewYoungDaly(mtbf, meanCkpt)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Name implements Strategy.
func (p Periodic) Name() string { return fmt.Sprintf("periodic(P=%.4g)", p.P) }

// Decide implements Strategy.
func (p Periodic) Decide(st State) Action {
	if st.Work >= p.P {
		return Checkpoint
	}
	return Continue
}
