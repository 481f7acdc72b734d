package reskit

import (
	"reskit/internal/dist"
	"reskit/internal/trace"
)

// Trace is a log of observed durations (checkpoints or tasks) that the
// fitting functions turn into probability laws — the "learned from
// traces of previous checkpoints" loop of the paper's introduction.
type Trace = trace.Trace

// TraceFit is the outcome of fitting one parametric family to a trace.
type TraceFit = trace.Fit

// FitTraceAll fits all of the paper's parametric families (Normal,
// LogNormal, Exponential, Gamma, Weibull) and returns every successful
// fit, best (lowest AIC) first.
func FitTraceAll(t *Trace) ([]TraceFit, error) { return trace.FitAll(t) }

// CheckpointLawFromTrace learns the D_C of Section 3 from a trace: the
// AIC-best family truncated to [a, b]. Pass NaN bounds to derive them
// from the observed range.
func CheckpointLawFromTrace(t *Trace, a, b float64) (*dist.Truncated, TraceFit, error) {
	return trace.CheckpointLaw(t, a, b)
}
