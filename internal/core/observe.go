package core

import (
	"sync/atomic"

	"reskit/internal/obs"
)

// The decision counters mirror optimize.ObserveBisectFallbacks: dynamic
// decisions run deep inside simulations and advisor answers, so a
// process-global hook keeps ShouldCheckpointAt free of plumbing. Only
// the two off-table paths count; a table decision never touches them.
var (
	exactDecisions    atomic.Pointer[obs.Counter]
	deadZoneDecisions atomic.Pointer[obs.Counter]
)

// ObserveDecisions installs the counters of the two ShouldCheckpointAt
// paths that do not decide from the coefficient table: exact counts the
// decisions that re-ran the exact integrals, deadZone the ties settled
// as a checkpoint without them. Pass nil to disable either.
func ObserveDecisions(exact, deadZone *obs.Counter) {
	exactDecisions.Store(exact)
	deadZoneDecisions.Store(deadZone)
}

func countExactDecision() {
	if c := exactDecisions.Load(); c != nil {
		c.Inc()
	}
}

func countDeadZoneDecision() {
	if c := deadZoneDecisions.Load(); c != nil {
		c.Inc()
	}
}
