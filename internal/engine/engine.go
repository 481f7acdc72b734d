// Package engine is the single execution path shared by every
// experiment mode of the toolchain and by the library's Monte-Carlo
// calls: a run is a list of deterministic Jobs (one Monte-Carlo block,
// one sweep cell, one figure), and the engine owns everything around
// them — worker sharding, per-job rng substreams, cooperative
// cancellation with a graceful drain, durable snapshot/restore at job
// granularity (internal/ckpt), atomic artifact writing
// (internal/atomicio), and obs instrumentation.
//
// The determinism contract is that of fixed-block Monte-Carlo: a Job
// must depend only on the spec configuration and the rng substream it
// is handed, so its payload bytes are a pure function of (config, seed,
// stream). Payloads are merged by the caller
// in job order, which makes the final result bit-identical for any
// worker count — and makes a completed job a resumable unit: restoring
// committed payloads from a snapshot and recomputing only the missing
// jobs reproduces an uninterrupted run exactly.
//
// Run and RunStream are the two cases of one run loop (loop.go): Run
// keeps every completed payload of a fixed grid by index; RunStream
// folds a lazy, possibly unbounded JobSource into an ordered
// StreamSink. Both keep their durable state in a Ledger (ledger.go),
// the one the distributed coordinator shares. See stream.go for the
// ordering and determinism argument.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"reskit/internal/atomicio"
	"reskit/internal/obs"
	"reskit/internal/rng"
)

// Artifact is one output file produced by a job. The engine writes it
// via write-temp-fsync-rename after the job returns, so a crash can
// never leave a truncated artifact at the destination path.
type Artifact struct {
	Path string
	Data []byte
	Perm os.FileMode // 0 means 0o644
}

// JobResult carries a job's outputs back to the engine: an opaque
// payload (persisted in snapshots, merged by the caller in job order)
// and any artifacts to write atomically.
type JobResult struct {
	Payload   []byte
	Artifacts []Artifact
}

// Job is one deterministic unit of a run.
type Job struct {
	// Name labels the job in errors and progress ("mtbf=50/block3").
	Name string
	// Stream selects the rng substream: Run receives
	// rng.NewStream(spec.Seed, Stream). Distinct jobs may share a
	// stream value (e.g. block b of every strategy in a comparison
	// draws stream b, exactly as a standalone run of that strategy
	// would) — determinism only requires that the mapping is fixed.
	Stream uint64
	// Run executes the job. It must return ctx.Err() when cancelled
	// mid-job: the engine treats context errors as interruption (the
	// job is simply not recorded and can be re-run on resume), and any
	// other error as a run-aborting failure.
	Run func(ctx context.Context, src *rng.Source) (JobResult, error)
}

// Checkpoint configures durable run state.
type Checkpoint struct {
	Path     string        // snapshot file ("" disables the layer)
	Interval time.Duration // min interval between snapshots (<= 0: 10s)
	Resume   bool          // restore completed jobs from Path first
}

// Spec describes a run: the job list, the reproducibility contract
// (seed and config fingerprint), and the operational knobs.
type Spec struct {
	Jobs        []Job
	Seed        uint64
	Fingerprint uint64 // hash of every configuration facet shaping payloads
	Workers     int    // parallel workers (<= 0: all CPUs)

	Checkpoint Checkpoint

	// Failure is the failure policy: per-job retry budgets with
	// deterministic backoff+jitter, per-attempt deadlines, and the
	// keep-going degraded mode. The zero value keeps the historical
	// fail-fast behavior at zero cost.
	Failure Failure

	// Check, when set, validates each restored payload before the run
	// trusts it. A failure aborts the run with an error: a payload that
	// passed the snapshot CRC but does not parse means the snapshot
	// belongs to an incompatible build, and silently re-running the job
	// could mask real corruption.
	Check func(job int, payload []byte) error

	// Log receives resume fallbacks and checkpoint warnings (nil
	// discards them).
	Log io.Writer

	// Reg, when non-nil, binds the engine's instruments — the
	// "engine.jobs_total" and "engine.jobs_per_sec" gauges, the
	// "engine.jobs_done" and "engine.jobs_restored" counters, the
	// "engine.ns_per_job" quantile sketch (p50/p90/p99 of per-job wall
	// time) — plus the checkpoint writer's "ckpt.*" set. These are the
	// same numbers -metrics reports: one source of truth for per-mode
	// throughput.
	Reg *obs.Registry

	// Progress, when non-nil, is ticked once per job; restored jobs
	// tick immediately on resume.
	Progress *obs.Progress
}

// Result reports a run.
type Result struct {
	// Payloads holds one entry per job, in job order; nil marks a job
	// that did not run (interrupted or failed before completing).
	Payloads [][]byte
	Restored int // jobs restored from the snapshot
	Fresh    int // jobs completed by this run

	// Failed lists the jobs a keep-going run gave up on, in job order:
	// their payload slots are nil, they are absent from the snapshot,
	// and a later resume retries exactly them. Empty unless
	// Failure.KeepGoing was set and jobs exhausted their retry budget.
	Failed []*JobError
}

// Done returns the number of jobs with a recorded payload.
func (r *Result) Done() int { return r.Restored + r.Fresh }

// Total returns the number of jobs in the spec.
func (r *Result) Total() int { return len(r.Payloads) }

// Run executes the spec: it restores completed jobs from the snapshot
// (validating them first, falling back to the previous snapshot
// generation when the head is unusable), runs the remaining jobs on the
// worker pool with one rng substream each, retries failing attempts
// within the spec's Failure policy, records every completed payload,
// writes artifacts atomically, and on cancellation drains workers at
// the next job boundary. A final snapshot is flushed on every path —
// success, interruption, failure — so completed work is never
// discarded. The returned error is ctx.Err() after an interruption —
// the partial Result is valid and the snapshot resumable — a joined
// multi-error of JobError values after a degraded keep-going run, a
// SnapshotError when the final snapshot could not be persisted, or the
// first real failure (job error past its retry budget, unusable
// restored payload, artifact write error, payload too large for the
// snapshot).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	n := len(spec.Jobs)
	res := &Result{Payloads: make([][]byte, n)}
	if err := spec.Failure.validate(); err != nil {
		return res, err
	}
	if n == 0 {
		return res, ctx.Err()
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	spec.Reg.Gauge("engine.jobs_total").Set(float64(n))

	led := OpenLedger(spec.Checkpoint, spec.Fingerprint, spec.Seed, n, spec.Log, spec.Reg)
	restored, err := led.Restore(res.Payloads, spec.Check, func(i int) string { return spec.Jobs[i].Name })
	res.Restored = restored
	if err != nil {
		return res, err
	}
	if led != nil {
		spec.Reg.Counter("engine.jobs_restored").Add(int64(restored))
		spec.Progress.Add(int64(restored))
	}

	// The sinkless pool: every job index off the slice, every completed
	// payload kept by index and recorded in the ledger. The executor
	// skips its timing calls entirely when spec.Reg is nil, so the
	// uninstrumented path stays clock-free.
	p := &pool{
		ex:        newExecutor(spec.Seed, spec.Failure, led, spec.Reg),
		src:       NewSliceSource(spec.Jobs),
		led:       led,
		kept:      res.Payloads,
		doneCtr:   spec.Reg.Counter("engine.jobs_done"),
		failedCtr: spec.Reg.Counter("engine.jobs_failed"),
		rate:      spec.Reg.Gauge("engine.jobs_per_sec"),
		progress:  spec.Progress,
	}
	p.drain(ctx, workers)
	res.Fresh = p.fresh
	return res, led.Finish(ctx, res, p.failed, p.err)
}

// runAttempt executes one attempt of a job under the per-attempt
// deadline, including its artifact writes — an artifact that fails to
// land is a failed attempt: re-running the job rewrites it, and
// atomicio guarantees no partial file ever reaches the destination. So
// is a payload the run's ledger could not record. On success the
// result is stored in *out. timedOut reports an attempt cut short by
// its own deadline while the run context was still live — the
// retryable flavor of context error.
func runAttempt(ctx context.Context, job *Job, src *rng.Source, timeout time.Duration, led *Ledger, out *JobResult) (err error, timedOut bool) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	jr, err := job.Run(actx, src)
	if err == nil {
		err = led.Admit("payload", jr.Payload)
	}
	if err == nil {
		err = writeArtifacts(jr.Artifacts)
	}
	if err == nil {
		*out = jr
		return nil, false
	}
	if timeout > 0 && isContextErr(err) {
		timedOut = errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil
	}
	return err, timedOut
}

// sleepBackoff waits the policy's deterministic jittered delay before
// retry `attempt` of job `job`, returning false when the run was
// cancelled mid-wait (the worker should drain, leaving the job
// unrecorded and resumable).
func sleepBackoff(ctx context.Context, pol Failure, seed uint64, job, attempt int, jit *rng.Source) bool {
	d := pol.backoff(seed, job, attempt, jit)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// isContextErr classifies cancellation and deadline errors.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeArtifacts persists a job's artifacts, each atomically.
func writeArtifacts(arts []Artifact) error {
	for _, a := range arts {
		perm := a.Perm
		if perm == 0 {
			perm = 0o644
		}
		if err := atomicio.WriteFile(a.Path, a.Data, perm); err != nil {
			return fmt.Errorf("artifact %s: %w", a.Path, err)
		}
	}
	return nil
}
