package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"reskit/internal/ckpt"
	"reskit/internal/obs"
)

// Ledger is the durable record of one run and the only owner of its
// snapshot files. Run, RunStream and the distributed coordinator
// (internal/distrun) share its restore policy, record path, final flush
// and snapshot image (internal/ckpt), so a snapshot any of them writes
// resumes on any other with the same identity: fingerprint, seed and
// job count (0 for an open-ended stream). A grid run records every
// completed payload, so a resume re-runs exactly the missing jobs,
// keep-going holes included; a folding stream records its commit
// frontier and the sink state at it. A nil *Ledger belongs to a run
// without a checkpoint path: it restores and records nothing.
type Ledger struct {
	path string
	logw io.Writer
	w    *ckpt.Writer
}

// OpenLedger opens the ledger of the run identified by (fingerprint,
// seed, jobs) at cp.Path; it returns nil when cp.Path is empty. Under
// cp.Resume it restores the newest usable snapshot generation — the
// head, or the rotated previous generation when the head is missing,
// corrupt or belongs to a different run — logging every fallback to
// logw; with no usable generation the run starts fresh. The snapshot
// writer's instruments bind on reg.
func OpenLedger(cp Checkpoint, fingerprint, seed uint64, jobs int, logw io.Writer, reg *obs.Registry) *Ledger {
	if cp.Path == "" {
		return nil
	}
	if logw == nil {
		logw = io.Discard
	}
	st := ckpt.New(fingerprint, seed, int64(jobs))
	if cp.Resume {
		st = resume(logw, cp.Path, st)
	}
	w := ckpt.NewWriter(cp.Path, cp.Interval, st)
	w.Instrument(reg)
	w.LogTo(logw)
	return &Ledger{path: cp.Path, logw: logw, w: w}
}

// resume returns the newest usable snapshot generation of the run whose
// identity the fresh state `run` carries, or `run` when none is usable.
func resume(logw io.Writer, path string, run *ckpt.State) *ckpt.State {
	for _, p := range []string{path, ckpt.PrevGeneration(path)} {
		loaded, err := ckpt.Load(p)
		switch {
		case errors.Is(err, os.ErrNotExist):
			continue
		case err != nil:
			fmt.Fprintf(logw, "resume: snapshot unusable at %s (%v)\n", p, err)
			continue
		}
		if err := loaded.Check(run.Fingerprint, run.Seed, run.Jobs); err != nil {
			fmt.Fprintf(logw, "resume: snapshot at %s does not match this run (%v)\n", p, err)
			continue
		}
		if run.Jobs == 0 {
			fmt.Fprintf(logw, "resume: restoring stream frontier %d from %s\n", loaded.Frontier, p)
		} else {
			fmt.Fprintf(logw, "resume: restoring %d/%d jobs from %s\n", loaded.Done(), loaded.Jobs, p)
		}
		return loaded
	}
	fmt.Fprintf(logw, "resume: no usable snapshot at %s; starting fresh\n", path)
	return run
}

// Restore copies every restored job payload into dst, indexed by job,
// and returns how many it copied. When check is set it validates each
// payload first (see Spec.Check); a rejection aborts the restore with
// an error naming the job, labelled by name.
func (l *Ledger) Restore(dst [][]byte, check func(job int, payload []byte) error, name func(job int) string) (int, error) {
	if l == nil {
		return 0, nil
	}
	records := l.w.State().Records
	n := 0
	for i := range dst {
		payload, ok := records[i]
		if !ok {
			continue
		}
		if check != nil {
			if err := check(i, payload); err != nil {
				return n, fmt.Errorf("engine: restoring job %d (%s): %w", i, name(i), err)
			}
		}
		dst[i] = payload
		n++
	}
	return n, nil
}

// Admit refuses data the snapshot could not hold: a record over
// ckpt.MaxPayload would be written, then refused by every readback and
// every resume. what names the data in the error.
func (l *Ledger) Admit(what string, data []byte) error {
	if l == nil || len(data) <= ckpt.MaxPayload {
		return nil
	}
	return fmt.Errorf("%s of %d bytes exceeds the %d-byte bound of a snapshot record", what, len(data), ckpt.MaxPayload)
}

// Record adds an admitted job payload to the durable record; the
// snapshot is written when the checkpoint interval has elapsed.
func (l *Ledger) Record(job int, payload []byte) {
	if l != nil {
		l.w.Commit(job, payload)
	}
}

// Finish ends a grid run: it files the jobs a keep-going run gave up on
// into res in job order and joins them into the run error (unless err
// is already set), flushes the final snapshot and removes the snapshot
// files once every job completed cleanly. It returns the run's verdict:
// err, else ctx.Err().
func (l *Ledger) Finish(ctx context.Context, res *Result, failed []*JobError, err error) error {
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool { return failed[a].Job < failed[b].Job })
		res.Failed = failed
		if err == nil {
			errs := make([]error, len(failed))
			for i, fe := range failed {
				errs[i] = fe
			}
			err = errors.Join(errs...)
		}
	}
	err = l.flush(err, ctx.Err() == nil && res.Done() == res.Total())
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// flush writes the final snapshot on every path — interrupted, degraded,
// even failed — because whatever did complete is worth keeping, and
// joins a failure into err as a SnapshotError, so an exit advertising a
// resumable state cannot be hiding a dead disk. When the run is
// complete and err is nil, the snapshots have served their purpose:
// leaving them would only invite a stale resume later.
func (l *Ledger) flush(err error, complete bool) error {
	if l == nil {
		return err
	}
	if ferr := l.w.Flush(); ferr != nil {
		err = errors.Join(err, &SnapshotError{Err: ferr})
	}
	if err == nil && complete {
		if rerr := ckpt.RemoveGenerations(l.path); rerr != nil {
			fmt.Fprintf(l.logw, "checkpoint: completed but could not remove %s: %v\n", l.path, rerr)
		}
	}
	return err
}
