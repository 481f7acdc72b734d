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
// Run executes a fixed job grid. RunStream generalizes it to a lazy,
// possibly unbounded JobSource drained into an ordered StreamSink —
// same worker pool, same attempt loop, same failure policy — with the
// commit frontier persisted as an open-ended snapshot (ckpt.KindStream)
// instead of a per-job payload map. See stream.go for the ordering and
// determinism argument.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reskit/internal/atomicio"
	"reskit/internal/ckpt"
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
	// same numbers -metrics and -benchjson report: one source of truth
	// for per-mode throughput.
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
// generation when the head is unusable), dispatches the remaining jobs
// to a worker pool with one rng substream each, retries failing
// attempts within the spec's Failure policy, commits every completed
// payload, writes artifacts atomically, and on cancellation drains
// workers at the next job boundary. A final snapshot is flushed on
// every path — success, interruption, failure — so completed work is
// never discarded. The returned error is ctx.Err() after an
// interruption — the partial Result is valid and the snapshot resumable
// — a joined multi-error of JobError values after a degraded keep-going
// run, a SnapshotError when the final snapshot could not be persisted,
// or the first real failure (job error past its retry budget, unusable
// restored payload, artifact write error).
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
	logw := spec.Log
	if logw == nil {
		logw = io.Discard
	}
	spec.Reg.Gauge("engine.jobs_total").Set(float64(n))
	doneCtr := spec.Reg.Counter("engine.jobs_done")

	var writer *ckpt.Writer
	skip := make([]bool, n)
	if spec.Checkpoint.Path != "" {
		st := ckpt.New(ckpt.KindJobs, spec.Fingerprint, spec.Seed, int64(n), 1)
		if spec.Checkpoint.Resume {
			if loaded := loadResumable(logw, spec.Checkpoint.Path, spec.Fingerprint, spec.Seed, int64(n)); loaded != nil {
				st = loaded
			}
		}
		writer = ckpt.NewWriter(spec.Checkpoint.Path, spec.Checkpoint.Interval, st)
		writer.Instrument(spec.Reg)
		writer.LogTo(logw)
		restoredCtr := spec.Reg.Counter("engine.jobs_restored")
		for i := 0; i < n; i++ {
			payload := writer.Restore(i)
			if payload == nil {
				continue
			}
			if spec.Check != nil {
				if err := spec.Check(i, payload); err != nil {
					return res, fmt.Errorf("engine: restoring job %d (%s): %w", i, spec.Jobs[i].Name, err)
				}
			}
			res.Payloads[i] = payload
			skip[i] = true
			res.Restored++
			restoredCtr.Inc()
			spec.Progress.Add(1)
		}
	}

	// A real job failure cancels the run; the first one wins. Context
	// errors are interruption, not failure — unless the job invented
	// one while the run context is still live, which would otherwise
	// silently drop the job.
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		failOnce sync.Once
		jobErr   error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			jobErr = err
			cancel()
		})
	}

	// The executor owns the per-attempt machinery (substream reinit,
	// deadlines, retry/backoff, the ns_per_job sketch) shared with the
	// streaming runner; the timing calls are skipped entirely when
	// spec.Reg is nil so the uninstrumented path stays clock-free.
	ex := newExecutor(spec.Seed, spec.Failure, spec.Reg)
	runStart := time.Now()

	pol := spec.Failure
	failedCtr := spec.Reg.Counter("engine.jobs_failed")
	// Permanent keep-going failures are recorded off the hot path; the
	// slice is sorted into job order once the workers are done.
	var (
		failedMu sync.Mutex
		failed   []*JobError
	)

	var fresh atomic.Int64
	jobs := make(chan int)
	done := jobCtx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One padded pair of Sources per worker, reinitialized per
			// job (and per attempt) — state identical to a fresh
			// NewStream, with no per-job allocation.
			ws := new(workerSources)
			for i := range jobs {
				job := spec.Jobs[i]
				jr, attempts, verdict, jerr := ex.runJob(jobCtx, i, &job, ws)
				switch verdict {
				case jobDrained:
					return // drained cleanly at a job boundary
				case jobFailed:
					if pol.KeepGoing {
						failedCtr.Inc()
						failedMu.Lock()
						failed = append(failed, &JobError{Job: i, Name: job.Name, Attempts: attempts, Err: jerr})
						failedMu.Unlock()
						continue // payload slot stays nil; the run keeps going
					}
					fail(wrapJobErr(i, job.Name, attempts, jerr))
					return
				case jobFabricated:
					// Never kept-going: a fabricated context error is a
					// programming bug, not a transient fault.
					fail(wrapJobErr(i, job.Name, attempts, jerr))
					return
				}
				res.Payloads[i] = jr.Payload // distinct index per job: no races
				if writer != nil {
					writer.Commit(i, jr.Payload)
				}
				fresh.Add(1)
				doneCtr.Inc()
				spec.Progress.Add(1)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		if skip[i] {
			continue
		}
		select {
		case jobs <- i:
		case <-done:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	res.Fresh = int(fresh.Load())
	if spec.Reg != nil {
		if elapsed := time.Since(runStart).Seconds(); elapsed > 0 {
			spec.Reg.Gauge("engine.jobs_per_sec").Set(float64(res.Fresh) / elapsed)
		}
	}

	// A degraded keep-going run reports every permanent failure as one
	// structured multi-error; the failed jobs stay out of the snapshot,
	// so a later resume retries exactly them.
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool { return failed[a].Job < failed[b].Job })
		res.Failed = failed
		if jobErr == nil {
			errs := make([]error, len(failed))
			for i, fe := range failed {
				errs[i] = fe
			}
			jobErr = errors.Join(errs...)
		}
	}

	if writer != nil {
		// The final snapshot is flushed on every path — interrupted,
		// degraded, even failed — because whatever jobs did commit are
		// worth keeping; and the writer's verdict is surfaced on every
		// path too, so an exit that advertises a resumable state cannot
		// be hiding a dead disk.
		if ferr := writer.Flush(); ferr != nil {
			serr := &SnapshotError{Err: ferr}
			if jobErr == nil {
				jobErr = serr
			} else {
				jobErr = errors.Join(jobErr, serr)
			}
		}
		if jobErr == nil && ctx.Err() == nil && res.Done() == n {
			// The run completed: the snapshots have served their purpose,
			// and leaving them around would only invite a stale resume
			// later.
			if rerr := ckpt.RemoveGenerations(spec.Checkpoint.Path); rerr != nil {
				fmt.Fprintf(logw, "checkpoint: completed but could not remove %s: %v\n", spec.Checkpoint.Path, rerr)
			}
		}
	}
	if jobErr != nil {
		return res, jobErr
	}
	return res, ctx.Err()
}

// ResumableState returns the newest usable KindJobs snapshot generation
// for a run with the given identity — the head, or the rotated previous
// generation when the head is missing, corrupt, or belongs to a
// different run — logging every fallback to logw. nil means no
// generation is usable and the run must start fresh. It is the same
// logic Run applies under Checkpoint.Resume, exported so alternative
// executors of a job grid (the distributed coordinator) share one
// resume policy with the local engine — including snapshot
// interchangeability: either side resumes the other's file.
func ResumableState(logw io.Writer, path string, fingerprint, seed uint64, n int64) *ckpt.State {
	if logw == nil {
		logw = io.Discard
	}
	return loadResumable(logw, path, fingerprint, seed, n)
}

// loadResumable returns the newest usable snapshot generation for this
// run — the head, or the rotated previous generation when the head is
// missing, corrupt, or belongs to a different run — logging every
// fallback. nil means no generation is usable and the run starts fresh.
func loadResumable(logw io.Writer, path string, fingerprint, seed uint64, n int64) *ckpt.State {
	for _, p := range []string{path, ckpt.PrevGeneration(path)} {
		loaded, lerr := ckpt.Load(p)
		switch {
		case errors.Is(lerr, os.ErrNotExist):
			continue
		case lerr != nil:
			fmt.Fprintf(logw, "resume: snapshot unusable at %s (%v)\n", p, lerr)
			continue
		}
		if cerr := loaded.Check(ckpt.KindJobs, fingerprint, seed, n, 1); cerr != nil {
			fmt.Fprintf(logw, "resume: snapshot at %s does not match this run (%v)\n", p, cerr)
			continue
		}
		fmt.Fprintf(logw, "resume: restoring %d/%d jobs from %s\n", loaded.Done(), loaded.NumBlocks, p)
		return loaded
	}
	fmt.Fprintf(logw, "resume: no usable snapshot at %s; starting fresh\n", path)
	return nil
}

// runAttempt executes one attempt of a job under the per-attempt
// deadline, including its artifact writes — an artifact that fails to
// land is a failed attempt: re-running the job rewrites it, and
// atomicio guarantees no partial file ever reaches the destination. On
// success the result is stored in *out. timedOut reports an attempt cut
// short by its own deadline while the run context was still live — the
// retryable flavor of context error.
func runAttempt(ctx context.Context, job *Job, src *rng.Source, timeout time.Duration, out *JobResult) (err error, timedOut bool) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	jr, err := job.Run(actx, src)
	if err == nil {
		if aerr := writeArtifacts(jr.Artifacts); aerr != nil {
			err = aerr
		}
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
