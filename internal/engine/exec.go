package engine

import (
	"context"
	"fmt"
	"time"

	"reskit/internal/obs"
	"reskit/internal/rng"
)

// jobVerdict classifies how one job left the attempt loop.
type jobVerdict int

const (
	// jobDone: the attempt succeeded and the result is valid.
	jobDone jobVerdict = iota
	// jobDrained: the run was cancelled at a job or backoff boundary;
	// the job is unrecorded and resumable.
	jobDrained
	// jobFailed: the retry budget is exhausted. Run's keep-going mode
	// may record it and continue; every other path aborts the run.
	jobFailed
	// jobFabricated: the job invented a context error while both the
	// run and its own deadline were live — a programming bug, not a
	// transient fault. Never retried, never kept-going.
	jobFabricated
)

// executor bundles the per-run pieces every worker shares — the
// reproducibility contract (seed), the failure policy, and the attempt
// instruments — so the fixed-grid Run and the streaming RunStream drive
// jobs through one identical attempt loop.
type executor struct {
	seed       uint64
	pol        Failure
	led        *Ledger // fails an attempt whose payload it could not record (nil: none)
	nsPerJob   *obs.Quantiles
	retryCtr   *obs.Counter
	timeoutCtr *obs.Counter
}

// newExecutor binds an executor for the run's policy on reg (nil reg
// leaves the instruments disabled).
func newExecutor(seed uint64, pol Failure, led *Ledger, reg *obs.Registry) *executor {
	return &executor{
		seed:       seed,
		pol:        pol,
		led:        led,
		nsPerJob:   reg.Quantiles("engine.ns_per_job"),
		retryCtr:   reg.Counter("engine.job_retries"),
		timeoutCtr: reg.Counter("engine.job_timeouts"),
	}
}

// workerSources is one worker's scratch generators: src is reinitialized
// onto each job's substream, and jit draws retry-backoff jitter without
// touching any job substream. src escapes to the heap through Job.Run,
// and two workers' bare Sources can share a cache line, so every draw
// of one worker would evict the line the other draws from. The pads
// give each worker's sources cache lines of their own (128 bytes also
// covers adjacent-line prefetch pairs).
type workerSources struct {
	_   [128]byte
	src rng.Source
	jit rng.Source
	_   [128]byte
}

// runJob drives one job to its policy verdict on a worker's scratch
// sources: every attempt restarts the job substream from scratch (so a
// retried job's payload is the same pure function of (seed, stream) as
// an undisturbed one), attempts run under the per-attempt deadline, and
// retries wait the deterministic jittered backoff. attempts is the
// attempt count at the verdict; err is the terminal job error for the
// failed verdicts.
func (e *executor) runJob(ctx context.Context, i int, job *Job, ws *workerSources) (jr JobResult, attempts int, verdict jobVerdict, err error) {
	src := &ws.src
	for attempt := 1; ; attempt++ {
		src.Reinit(e.seed, job.Stream)
		var jobStart time.Time
		if e.nsPerJob != nil {
			jobStart = time.Now()
		}
		jerr, timedOut := runAttempt(ctx, job, src, e.pol.JobTimeout, e.led, &jr)
		if e.nsPerJob != nil {
			e.nsPerJob.Observe(float64(time.Since(jobStart)))
		}
		if jerr == nil {
			return jr, attempt, jobDone, nil
		}
		if isContextErr(jerr) && ctx.Err() != nil {
			return jr, attempt, jobDrained, nil
		}
		if timedOut {
			e.timeoutCtr.Inc()
			jerr = fmt.Errorf("attempt deadline %v exceeded: %w", e.pol.JobTimeout, jerr)
		}
		fabricated := isContextErr(jerr) && !timedOut
		if !fabricated && attempt <= e.pol.Retries {
			e.retryCtr.Inc()
			if !sleepBackoff(ctx, e.pol, e.seed, i, attempt, &ws.jit) {
				return jr, attempt, jobDrained, nil
			}
			continue
		}
		if fabricated {
			return jr, attempt, jobFabricated, jerr
		}
		return jr, attempt, jobFailed, jerr
	}
}

// wrapJobErr renders a permanent job failure the way the engine reports
// it: the attempt count when retries were spent, then the job identity.
func wrapJobErr(i int, name string, attempts int, err error) error {
	if attempts > 1 {
		err = fmt.Errorf("after %d attempts: %w", attempts, err)
	}
	return fmt.Errorf("engine: job %d (%s): %w", i, name, err)
}
