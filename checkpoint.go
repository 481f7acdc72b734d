package reskit

import (
	"os"

	"reskit/internal/atomicio"
	"reskit/internal/ckpt"
)

// Durable-run facade. The paper's medicine applied to the simulator
// itself: an engine run (RunEngine with an EngineCheckpoint) snapshots
// the payload of every completed job to disk, and an interrupted run
// resumes by re-running only the missing jobs — with the final result
// bit-identical to an uninterrupted run for any worker count, because
// every job owns an independent rng substream. The MonteCarlo* calls
// keep nothing on disk: a durable Monte-Carlo run is a RunEngine grid
// with one job per trial block, as every simulate mode runs.

// RunState is the durable image of any engine run: seed, config
// fingerprint and job count (0 for a stream), the payload of every
// completed job, or a stream's commit frontier and sink state at it.
type RunState = ckpt.State

// Structured snapshot errors re-exported from internal/ckpt (classify
// with errors.Is; all of them mean "do not trust this file", never a
// panic).
var (
	ErrSnapshotCorrupt  = ckpt.ErrCorrupt
	ErrSnapshotVersion  = ckpt.ErrVersion
	ErrSnapshotMismatch = ckpt.ErrMismatch
	ErrNotSnapshot      = ckpt.ErrNotSnapshot
)

// LoadRunState reads, CRC-checks and decodes a snapshot file. Corrupt,
// truncated or version-skewed files return structured errors; validate
// the result against the current run with RunState.Check before
// resuming.
func LoadRunState(path string) (*RunState, error) { return ckpt.Load(path) }

// numericsEpoch names the generation of the numerical kernels behind
// run payloads. ConfigFingerprint hashes it ahead of the configuration
// facets: a kernel change moves payload bits under an unchanged
// configuration, so snapshots and fleet workers from before it must be
// refused, not merged. Bump it whenever a kernel change moves any
// sampled value or flips any policy decision. numerics/1 brought the
// AS241 normal quantile; numerics/2 samples truncated Gamma and Beta
// laws through inversion tables, which move those draws by up to 1e-12
// in u; numerics/3 decides the dynamic rule from certified cubic cells
// and integrates between the kinks of bounded laws, which flips
// decisions the linear table got wrong (V11) and moves W_int for
// truncated or uniform laws.
const numericsEpoch = "numerics/3"

// ConfigFingerprint hashes an ordered list of configuration facets,
// preceded by the numerics epoch, into the fingerprint stored in
// snapshots, so resuming under a different configuration or numerical
// kernel is detected instead of silently producing wrong numbers.
func ConfigFingerprint(parts ...string) uint64 {
	return ckpt.Fingerprint(append([]string{numericsEpoch}, parts...)...)
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
