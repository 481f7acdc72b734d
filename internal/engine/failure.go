package engine

import (
	"fmt"
	"time"

	"reskit/internal/rng"
)

// Failure is the engine's failure policy: what happens when a job
// errors or overruns instead of completing. The zero value is the
// historical behavior — no retries, no deadline, first failure cancels
// the run — and costs nothing on the hot path.
type Failure struct {
	// Retries is the per-job retry budget: a job may run up to
	// Retries+1 times before its failure becomes permanent. Transient
	// errors and per-job timeouts are retryable; run cancellation and
	// fabricated context errors are not.
	Retries int

	// Backoff is the base delay before the first retry (default 100ms
	// when Retries > 0). Retry k waits Backoff·2^(k-1), capped at
	// MaxBackoff, then jittered into [d/2, d) by a dedicated rng
	// substream — the jitter never touches a job's own substream, so
	// retried runs stay bit-identical to undisturbed ones.
	Backoff time.Duration

	// MaxBackoff caps the exponential growth (default 64×Backoff).
	MaxBackoff time.Duration

	// JobTimeout bounds each attempt with context.WithTimeout around
	// Job.Run (0 = no deadline). An attempt cut short by its own
	// deadline while the run is live classifies as retryable.
	JobTimeout time.Duration

	// KeepGoing records a job's permanent failure in the Result (a nil
	// payload slot plus a JobError in Result.Failed) and keeps running
	// the remaining jobs, instead of cancelling the run. Failed jobs
	// are absent from the snapshot, so a later resume retries exactly
	// them.
	KeepGoing bool
}

// validate rejects nonsensical policies up front, so a bad policy fails
// the run before any job does.
func (f Failure) validate() error {
	switch {
	case f.Retries < 0:
		return fmt.Errorf("engine: negative retry budget %d", f.Retries)
	case f.Retries > maxRetries:
		return fmt.Errorf("engine: retry budget %d exceeds the %d cap", f.Retries, maxRetries)
	case f.Backoff < 0:
		return fmt.Errorf("engine: negative backoff %v", f.Backoff)
	case f.MaxBackoff < 0:
		return fmt.Errorf("engine: negative max backoff %v", f.MaxBackoff)
	case f.MaxBackoff > 0 && f.Backoff > f.MaxBackoff:
		return fmt.Errorf("engine: backoff %v exceeds max backoff %v", f.Backoff, f.MaxBackoff)
	case f.JobTimeout < 0:
		return fmt.Errorf("engine: negative job timeout %v", f.JobTimeout)
	}
	return nil
}

// maxRetries bounds the retry budget; a budget beyond this is a typo,
// not a plan.
const maxRetries = 1 << 16

// defaultBackoff seeds the exponential schedule when the policy sets
// retries without a base delay.
const defaultBackoff = 100 * time.Millisecond

// failureJitterSalt separates the backoff-jitter substreams from every
// substream the jobs themselves draw (job payloads use spec.Seed
// unsalted), so jitter can never perturb a payload.
const failureJitterSalt = 0x9c2ff3a7b51d04e9

// backoff returns the deterministic delay before retry `attempt`
// (1-based) of job index `job`: exponential growth from the base,
// capped, then jittered into [d/2, d) by the dedicated substream. jit
// is caller-provided scratch so the retry path allocates nothing.
func (f Failure) backoff(seed uint64, job, attempt int, jit *rng.Source) time.Duration {
	base := f.Backoff
	if base <= 0 {
		base = defaultBackoff
	}
	max := f.MaxBackoff
	if max <= 0 {
		max = 64 * base
	}
	d := base
	for k := 1; k < attempt && d < max; k++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// One substream per (job, attempt): deterministic regardless of
	// how attempts interleave across workers. Collisions between
	// distinct (job, attempt) pairs would only correlate delays, never
	// payloads, but the odd multiplier keeps them unlikely anyway.
	jit.Reinit(seed^failureJitterSalt, uint64(job)*0x9e3779b97f4a7c15+uint64(attempt))
	half := d / 2
	return half + time.Duration(jit.Float64()*float64(half))
}

// JobError records one job's permanent failure in a keep-going run: the
// job index and name, how many attempts its retry budget bought, and
// the final error.
type JobError struct {
	Job      int
	Name     string
	Attempts int
	Err      error
}

// Error formats the failure with its job identity, so the joined
// multi-error of a degraded run reads as a per-job report.
func (e *JobError) Error() string {
	return fmt.Sprintf("engine: job %d (%s) failed permanently after %d attempt(s): %v",
		e.Job, e.Name, e.Attempts, e.Err)
}

// Unwrap exposes the job's final error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// SnapshotError marks a run whose durable state could not be persisted:
// the in-memory result is still valid, but the on-disk snapshot is
// stale, missing, or unverifiable — a later resume may redo work or
// find nothing. Callers that advertise "rerun with -resume" must check
// for it first.
type SnapshotError struct{ Err error }

// Error names the condition the wrapped error caused.
func (e *SnapshotError) Error() string {
	return fmt.Sprintf("engine: run state is not durable: %v", e.Err)
}

// Unwrap exposes the underlying disk error.
func (e *SnapshotError) Unwrap() error { return e.Err }
