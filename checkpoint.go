package reskit

import (
	"context"
	"os"
	"time"

	"reskit/internal/atomicio"
	"reskit/internal/ckpt"
	"reskit/internal/sim"
)

// Durable-run facade. The paper's medicine applied to the simulator
// itself: a sharded Monte-Carlo run periodically snapshots its completed
// blocks to disk, and an interrupted run resumes by re-running only the
// missing blocks — with the final aggregate bit-identical to an
// uninterrupted run for any worker count, because every block owns an
// independent rng substream.

// Checkpointer is the durable run-state hook of the sharded Monte-Carlo
// runners: Restore feeds back blocks a previous run completed, Commit
// persists each freshly completed block. RunCheckpointer is the
// production implementation.
type Checkpointer = sim.Checkpointer

// RunState is the durable image of a sharded Monte-Carlo run: geometry,
// seed, config fingerprint, and the encoded partial aggregate of every
// completed block.
type RunState = ckpt.State

// RunCheckpointer persists a RunState to disk, throttled to one
// atomic snapshot per interval, and feeds restored blocks back on
// resume.
type RunCheckpointer = ckpt.Writer

// RunStateKind distinguishes per-reservation and campaign snapshots.
type RunStateKind = ckpt.Kind

// Snapshot kinds, block geometry, and the structured snapshot errors
// (classify with errors.Is; all of them mean "do not trust this file",
// never a panic).
const (
	RunStateMonteCarlo = ckpt.KindMonteCarlo
	RunStateCampaign   = ckpt.KindCampaign
	// RunStateJobs is the generic job-granular snapshot written by the
	// unified run engine (RunEngine); one block per job, block size 1.
	RunStateJobs = ckpt.KindJobs

	// MonteCarloBlockSize and CampaignBlockSize are the trials-per-rng-
	// substream blocks of the two runners; snapshots validate against
	// them on resume.
	MonteCarloBlockSize = sim.MonteCarloBlockSize
	CampaignBlockSize   = sim.CampaignBlockSize
)

// Structured snapshot errors re-exported from internal/ckpt.
var (
	ErrSnapshotCorrupt  = ckpt.ErrCorrupt
	ErrSnapshotVersion  = ckpt.ErrVersion
	ErrSnapshotMismatch = ckpt.ErrMismatch
	ErrNotSnapshot      = ckpt.ErrNotSnapshot
)

// NewRunState returns an empty durable run state for a fresh run.
func NewRunState(kind RunStateKind, fingerprint, seed uint64, trials, blockSize int64) *RunState {
	return ckpt.New(kind, fingerprint, seed, trials, blockSize)
}

// LoadRunState reads, CRC-checks and decodes a snapshot file. Corrupt,
// truncated or version-skewed files return structured errors; validate
// the result against the current run with RunState.Check before
// resuming.
func LoadRunState(path string) (*RunState, error) { return ckpt.Load(path) }

// NewRunCheckpointer returns a checkpointer persisting state to path at
// most once per interval (10s when interval <= 0) via atomic
// write-temp-fsync-rename snapshots.
func NewRunCheckpointer(path string, interval time.Duration, state *RunState) *RunCheckpointer {
	return ckpt.NewWriter(path, interval, state)
}

// numericsEpoch names the generation of the numerical kernels behind
// every sampled variate. ConfigFingerprint hashes it ahead of the
// configuration facets: a kernel change moves the low bits of every
// payload under an unchanged configuration, so snapshots and fleet
// workers from before it must be refused, not merged. Bump it whenever
// a kernel change moves any sampled value.
const numericsEpoch = "numerics/1"

// ConfigFingerprint hashes an ordered list of configuration facets,
// preceded by the numerics epoch, into the fingerprint stored in
// snapshots, so resuming under a different configuration or numerical
// kernel is detected instead of silently producing wrong numbers.
func ConfigFingerprint(parts ...string) uint64 {
	return ckpt.Fingerprint(append([]string{numericsEpoch}, parts...)...)
}

// MonteCarloCheckpointed is MonteCarloContext with durable run state:
// blocks already in ck are restored instead of re-run, fresh blocks are
// committed to ck, and the final aggregate is bit-identical to an
// uninterrupted MonteCarlo for any worker count.
func MonteCarloCheckpointed(ctx context.Context, cfg SimConfig, trials int, seed uint64, workers int, ck Checkpointer) (SimAggregate, error) {
	return sim.MonteCarloCheckpointed(ctx, cfg, trials, seed, workers, ck)
}

// MonteCarloCampaignCheckpointed is MonteCarloCampaignContext with
// durable run state, under the same contract as MonteCarloCheckpointed.
func MonteCarloCampaignCheckpointed(ctx context.Context, cfg CampaignConfig, trials int, seed uint64, workers int, ck Checkpointer) (CampaignAggregate, error) {
	return sim.MonteCarloCampaignCheckpointed(ctx, cfg, trials, seed, workers, ck)
}

// WriteFileAtomic replaces the file at path via write-temp-fsync-rename:
// a crash mid-write can never leave a truncated artifact. Every file the
// toolchain emits (benchmark snapshots, metrics, traces, checkpoints)
// goes through this path.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return atomicio.WriteFile(path, data, perm)
}

// CreateFileAtomic starts a streamed atomic write: bytes go to a
// temporary sibling and the destination appears only when Close
// succeeds.
func CreateFileAtomic(path string) (*atomicio.File, error) { return atomicio.Create(path) }
