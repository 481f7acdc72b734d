package engine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
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

// validate rejects nonsensical policies up front, so a bad spec fails
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

// maxRetries bounds the retry budget; a budget beyond this is a spec
// typo, not a plan.
const maxRetries = 1 << 16

// defaultBackoff seeds the exponential schedule when the spec sets
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

// String renders the policy as the canonical spec ParseFailure accepts:
// fields in fixed order, defaults omitted. The zero policy renders
// empty.
func (f Failure) String() string {
	var parts []string
	if f.Retries != 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", f.Retries))
	}
	if f.Backoff != 0 {
		parts = append(parts, "backoff="+f.Backoff.String())
	}
	if f.MaxBackoff != 0 {
		parts = append(parts, "max-backoff="+f.MaxBackoff.String())
	}
	if f.JobTimeout != 0 {
		parts = append(parts, "timeout="+f.JobTimeout.String())
	}
	if f.KeepGoing {
		parts = append(parts, "keep-going")
	}
	return strings.Join(parts, ",")
}

// ParseFailure parses a compact failure-policy spec — comma-separated
// key=value pairs plus the bare keep-going flag:
//
//	retries=3,backoff=50ms,max-backoff=5s,timeout=1m,keep-going
//
// Keys may appear in any order but at most once; unknown keys and
// invalid values are errors, and the assembled policy is validated
// (e.g. backoff must not exceed max-backoff). The empty string parses
// to the zero policy.
func ParseFailure(s string) (Failure, error) {
	var f Failure
	s = strings.TrimSpace(s)
	if s == "" {
		return f, nil
	}
	seen := make(map[string]bool, 5)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return Failure{}, errors.New("engine: empty field in failure spec")
		}
		key, val, hasVal := strings.Cut(field, "=")
		key = strings.TrimSpace(key)
		if seen[key] {
			return Failure{}, fmt.Errorf("engine: duplicate %q in failure spec", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "keep-going":
			if hasVal {
				return Failure{}, errors.New("engine: keep-going takes no value")
			}
			f.KeepGoing = true
			continue
		case "retries":
			f.Retries, err = strconv.Atoi(strings.TrimSpace(val))
		case "backoff":
			f.Backoff, err = parseSpecDuration(val)
		case "max-backoff":
			f.MaxBackoff, err = parseSpecDuration(val)
		case "timeout":
			f.JobTimeout, err = parseSpecDuration(val)
		default:
			return Failure{}, fmt.Errorf("engine: unknown key %q in failure spec (known: %s)",
				key, strings.Join(failureSpecKeys(), ", "))
		}
		if !hasVal && key != "keep-going" {
			return Failure{}, fmt.Errorf("engine: %s needs a value in failure spec", key)
		}
		if err != nil {
			return Failure{}, fmt.Errorf("engine: bad %s in failure spec: %w", key, err)
		}
	}
	if err := f.validate(); err != nil {
		return Failure{}, err
	}
	return f, nil
}

// parseSpecDuration parses a duration field, rejecting the negative and
// non-finite shapes time.ParseDuration happily accepts.
func parseSpecDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return d, nil
}

// failureSpecKeys lists the accepted spec keys, sorted, for error
// messages.
func failureSpecKeys() []string {
	keys := []string{"retries", "backoff", "max-backoff", "timeout", "keep-going"}
	sort.Strings(keys)
	return keys
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
