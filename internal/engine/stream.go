package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"reskit/internal/obs"
)

// StreamSink folds committed payloads into a running aggregate, in
// strict index order. The engine never calls its methods concurrently.
//
// Because Commit(i) is always preceded by Commit(0..i-1), the sink
// state after job i is a pure function of the payload prefix — and
// payloads are pure functions of (config, seed, stream) — so both the
// stop decision and the frontier snapshots are independent of the
// worker count and of how out-of-order the results arrived.
type StreamSink interface {
	// Commit folds job i's payload. Returning stop=true asks the engine
	// to finish the run at this frontier (results of jobs beyond i are
	// discarded, never folded); an error aborts the run.
	Commit(i int, payload []byte) (stop bool, err error)
	// State returns the serialized sink at the current frontier, for
	// frontier snapshots. It must capture everything Commit mutates:
	// Restore(State()) followed by the same Commit sequence must be
	// bit-identical to never having been interrupted.
	State() ([]byte, error)
	// Restore resets the sink to a state previously returned by State.
	Restore(state []byte) error
}

// StreamSpec describes a streaming run: a lazy job source drained into
// an ordered sink by the same bounded worker pool, attempt loop and
// failure policy as the fixed-grid Run.
type StreamSpec struct {
	Source JobSource
	Sink   StreamSink

	Seed        uint64
	Fingerprint uint64 // hash of every configuration facet shaping payloads
	Workers     int    // parallel workers (<= 0: all CPUs)

	// MaxJobs caps the number of jobs committed (0: unbounded). The cap
	// counts from job 0 — restored jobs included — so a resumed run
	// stops at the same frontier an uninterrupted one would.
	MaxJobs int

	// Window bounds how far dispatch may run ahead of the commit
	// frontier: at most Window job indices are in flight or parked
	// out-of-order at any moment, which bounds memory however unbounded
	// the source is (0: 4x workers).
	Window int

	Checkpoint Checkpoint

	// Failure is the per-job retry policy. KeepGoing is rejected up
	// front: a permanently failed job would block the commit frontier
	// forever.
	Failure Failure

	// Log receives resume fallbacks and checkpoint warnings (nil
	// discards them).
	Log io.Writer

	// Reg, when non-nil, binds the engine instruments plus the
	// streaming extras: the "engine.stream_frontier" gauge tracks the
	// commit frontier live.
	Reg *obs.Registry

	// Progress, when non-nil, is ticked once per committed job;
	// restored jobs tick immediately on resume.
	Progress *obs.Progress
}

// StreamResult reports a streaming run.
type StreamResult struct {
	// Committed is the final frontier: jobs [0, Committed) are folded
	// into the sink.
	Committed int
	// Restored counts the committed jobs replayed from the frontier
	// snapshot rather than executed.
	Restored int
	// Stopped reports that the sink requested the stop.
	Stopped bool
	// Exhausted reports that the source ran dry (or MaxJobs was hit)
	// before the sink asked to stop.
	Exhausted bool
}

// Fresh returns the number of jobs this run executed and committed.
func (r *StreamResult) Fresh() int { return r.Committed - r.Restored }

// RunStream drains the source into the sink: workers take jobs off the
// source as the window allows, results are parked until their index is
// next at the commit frontier, and the sink folds them in strict order —
// evaluating its stop rule after every fold. The frontier (plus the
// sink state) is snapshotted on the checkpoint interval, so a killed
// run resumes by restoring the sink, replaying the source past the
// frontier, and continuing bit-identically. The returned error follows
// Run's contract: ctx.Err() after interruption (resumable), a
// SnapshotError when the final snapshot could not be persisted, or the
// first real failure.
func RunStream(ctx context.Context, spec StreamSpec) (*StreamResult, error) {
	res := &StreamResult{}
	if spec.Source == nil || spec.Sink == nil {
		return res, errors.New("engine: stream spec needs a source and a sink")
	}
	if err := spec.Failure.validate(); err != nil {
		return res, err
	}
	if spec.Failure.KeepGoing {
		return res, errors.New("engine: keep-going is incompatible with streaming (a permanently failed job would block the commit frontier forever)")
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := spec.Window
	if window <= 0 {
		window = 4 * workers
	}
	if window < workers {
		window = workers
	}
	frontierGauge := spec.Reg.Gauge("engine.stream_frontier")

	// Frontier snapshot: restore the sink state and fast-forward the
	// source past the committed prefix.
	led := OpenLedger(spec.Checkpoint, spec.Fingerprint, spec.Seed, 0, spec.Log, spec.Reg)
	frontier := 0
	if led != nil {
		frontier = int(led.w.State().Frontier)
	}
	if frontier > 0 {
		if err := spec.Sink.Restore(led.w.State().Sink); err != nil {
			return res, fmt.Errorf("engine: restoring stream sink at frontier %d: %w", frontier, err)
		}
		// The source is deterministic, so jobs [0, frontier) are exactly
		// the ones the restored sink already folded: skip them without
		// executing.
		for i := 0; i < frontier; i++ {
			if _, ok := spec.Source.Next(); !ok {
				return res, fmt.Errorf("engine: stream source exhausted at job %d while replaying a frontier of %d", i, frontier)
			}
		}
		res.Restored = frontier
		spec.Reg.Counter("engine.jobs_restored").Add(int64(frontier))
		frontierGauge.Set(float64(frontier))
		spec.Progress.Add(int64(frontier))
	}

	// Job payloads are folded, never recorded, so the executor admits
	// any payload; the ledger bounds the sink state instead.
	p := &pool{
		ex:            newExecutor(spec.Seed, spec.Failure, nil, spec.Reg),
		src:           spec.Source,
		maxJobs:       spec.MaxJobs,
		led:           led,
		sink:          spec.Sink,
		window:        window,
		parked:        make([][]byte, window),
		ready:         make([]bool, window),
		next:          frontier,
		frontier:      frontier,
		doneCtr:       spec.Reg.Counter("engine.jobs_done"),
		frontierGauge: frontierGauge,
		rate:          spec.Reg.Gauge("engine.jobs_per_sec"),
		progress:      spec.Progress,
	}
	p.room.L = &p.mu
	p.drain(ctx, workers)

	res.Committed = p.frontier
	res.Stopped = p.stopped
	res.Exhausted = p.exhausted && !p.stopped && p.err == nil && ctx.Err() == nil
	// The final frontier is recorded on every path — interrupted,
	// stopped, even failed — because the committed prefix is worth
	// keeping.
	p.snapshotLocked(true)
	err := led.flush(p.err, ctx.Err() == nil && (res.Stopped || res.Exhausted))
	if err == nil {
		err = ctx.Err()
	}
	return res, err
}
