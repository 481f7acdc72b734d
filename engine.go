package reskit

import (
	"context"

	"reskit/internal/engine"
)

// Unified run-engine facade. Every simulate mode, figure render, and
// report build in this repository executes as a list of independent jobs
// under one engine: deterministic per-job rng substreams, worker
// sharding, graceful cancellation, job-granular durable checkpoints
// (RunState snapshots recording every completed job), atomic artifact
// writes, and observability hooks. Results are bit-identical for any
// worker count, and an interrupted run resumes by re-running only the
// missing jobs.

// EngineJob is one independent unit of work: a name for logs, the rng
// substream index it owns, and the function that computes its result.
type EngineJob = engine.Job

// EngineJobResult is what a job returns: an opaque payload persisted in
// snapshots, plus artifacts written atomically when the job commits.
type EngineJobResult = engine.JobResult

// EngineArtifact is a file a job produces, written atomically
// (write-temp-fsync-rename) when the job commits.
type EngineArtifact = engine.Artifact

// EngineCheckpoint configures job-granular durable run state: snapshot
// path, throttle interval, and whether to restore completed jobs from an
// existing snapshot.
type EngineCheckpoint = engine.Checkpoint

// EngineSpec describes a full run: the jobs, the base seed and config
// fingerprint, worker count, checkpointing, payload validation, and
// observability sinks.
type EngineSpec = engine.Spec

// EngineResult collects per-job payloads in job order plus how many jobs
// were restored from a snapshot versus freshly run.
type EngineResult = engine.Result

// EngineFailure is the per-job failure policy: retry budget,
// deterministic exponential backoff bounds, per-attempt deadline, and
// keep-going mode (record permanent failures instead of aborting the
// run). The zero value disables all of it at no cost.
type EngineFailure = engine.Failure

// EngineJobError describes one job that exhausted its retry budget in a
// keep-going run; Result.Failed collects them and the run error joins
// them (errors.As-addressable).
type EngineJobError = engine.JobError

// EngineSnapshotError reports that the run's final snapshot could not
// be written or verified: the run state on disk is stale or missing, so
// an "interrupted but resumable" claim would be false.
type EngineSnapshotError = engine.SnapshotError

// ParseEngineFailure parses a compact failure-policy spec such as
// "retries=3,backoff=50ms,max-backoff=5s,timeout=1m,keep-going".
func ParseEngineFailure(spec string) (EngineFailure, error) {
	return engine.ParseFailure(spec)
}

// RunEngine executes spec's jobs across workers. On cancellation it
// drains gracefully, writes a final resumable snapshot when
// checkpointing is configured, and returns ctx.Err() with the partial
// result; on success any snapshot is removed.
func RunEngine(ctx context.Context, spec EngineSpec) (*EngineResult, error) {
	return engine.Run(ctx, spec)
}
