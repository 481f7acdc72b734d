package reskit

import (
	"io"
	"time"

	"reskit/internal/core"
	"reskit/internal/obs"
	"reskit/internal/optimize"
	"reskit/internal/quad"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

// Observability facade. The instruments of internal/obs follow one
// contract everywhere: a nil instrument (or registry, or observer) is a
// no-op costing one pointer check, and an attached one never consumes
// randomness or alters control flow — simulation aggregates are
// bit-identical with observation on or off, for any worker count.

// ObsRegistry names and owns a set of counters, gauges and quantile
// sketches.
type ObsRegistry = obs.Registry

// ObsSnapshot is a point-in-time copy of a registry, shaped for JSON.
type ObsSnapshot = obs.Snapshot

// NewObsRegistry returns an empty instrument registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// SimObserver streams per-run tallies, sampled trace events, and
// progress ticks from the simulator. Attach one to SimConfig.Obs.
type SimObserver = sim.Observer

// NewSimObserver binds the canonical simulator instrument set on reg
// (nil disables everything), with the saved-work distribution in the
// "sim.saved_work" quantile sketch.
func NewSimObserver(reg *ObsRegistry) *SimObserver {
	return sim.NewObserver(reg)
}

// NewJSONLTraceSink wraps w in a buffered sink writing one JSON object
// per simulation trace event line; assign it to SimObserver.Trace. Call
// Flush or Close before reading the output.
func NewJSONLTraceSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// Progress is a live progress reporter for long Monte-Carlo runs.
type Progress = obs.Progress

// NewProgress returns a reporter writing to w every interval (default
// 1s). total <= 0 means unknown.
func NewProgress(w io.Writer, label string, total int64, interval time.Duration) *Progress {
	return obs.NewProgress(w, label, total, interval)
}

// CountedStrategy wraps s so every decision increments a
// continue/checkpoint/stop counter on reg, without altering any
// decision. The wrapped policy is transparent: simulation results are
// bit-identical with or without it.
func CountedStrategy(s Strategy, reg *ObsRegistry) Strategy {
	return strategy.NewCounted(s, reg)
}

// ObserveQuadrature binds the process-global integrand-evaluation
// counter of the quadrature kernels to "quad.evals" on reg, and the
// dynamic rule's off-table decision counters to "core.exact_decisions"
// (decisions that re-ran the exact integrals) and
// "core.deadzone_decisions" (ties settled as a checkpoint without
// them); a nil registry disables them. Counting never affects numerical
// results.
func ObserveQuadrature(reg *ObsRegistry) {
	quad.ObserveEvals(reg.Counter("quad.evals"))
	core.ObserveDecisions(reg.Counter("core.exact_decisions"), reg.Counter("core.deadzone_decisions"))
}

// ObserveOptimize binds the process-global root-finder resilience
// counters — "optimize.nonfinite_retries" (objective returned NaN/Inf
// and nudged abscissae were probed) and "optimize.bisect_fallbacks"
// (Brent restarted as plain bisection) — on reg; a nil registry
// disables them.
func ObserveOptimize(reg *ObsRegistry) {
	optimize.ObserveNonFiniteRetries(reg.Counter("optimize.nonfinite_retries"))
	optimize.ObserveBisectFallbacks(reg.Counter("optimize.bisect_fallbacks"))
}
