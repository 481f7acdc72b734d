package engine

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/rng"
)

// TestRunRefusesPayloadOverSnapshotBound: a payload the snapshot could
// not hold fails its attempt — with an error naming the bound — instead
// of being written and then refused by every readback and resume. The
// snapshot stays durable and resumable, and a run that keeps nothing on
// disk is not bounded at all.
func TestRunRefusesPayloadOverSnapshotBound(t *testing.T) {
	huge := func(ctx context.Context, src *rng.Source) (JobResult, error) {
		return JobResult{Payload: make([]byte, ckpt.MaxPayload+1)}, nil
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	spec := hashSpec(6, 2)
	spec.Jobs[3].Run = huge
	spec.Checkpoint = Checkpoint{Path: path, Interval: time.Nanosecond}
	spec.Failure = Failure{Retries: 1, Backoff: time.Microsecond, KeepGoing: true}
	res, err := Run(context.Background(), spec)
	var je *JobError
	if !errors.As(err, &je) || je.Job != 3 || je.Attempts != 2 {
		t.Fatalf("err = %v, want JobError for job 3 after 2 attempts", err)
	}
	if want := "exceeds the 1048576-byte bound of a snapshot record"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name the bound (%q)", err, want)
	}
	var serr *SnapshotError
	if errors.As(err, &serr) {
		t.Fatalf("the snapshot must stay durable: %v", err)
	}
	if res.Fresh != 5 || res.Payloads[3] != nil {
		t.Fatalf("fresh = %d, payload 3 = %d bytes; want 5 and none", res.Fresh, len(res.Payloads[3]))
	}
	st, lerr := ckpt.Load(path)
	if lerr != nil || st.Done() != 5 {
		t.Fatalf("snapshot after a refused payload: %v (%d records), want 5 readable records", lerr, st.Done())
	}

	// A run that keeps nothing on disk bounds no payload.
	spec = hashSpec(6, 2)
	spec.Jobs[3].Run = huge
	if res, err := Run(context.Background(), spec); err != nil || len(res.Payloads[3]) != ckpt.MaxPayload+1 {
		t.Fatalf("unpersisted run: err = %v, payload 3 = %d bytes", err, len(res.Payloads[3]))
	}
}

// bloatedSink is a foldSink whose state outgrows a snapshot record.
type bloatedSink struct{ foldSink }

func (s *bloatedSink) State() ([]byte, error) {
	state, _ := s.foldSink.State()
	return append(state, make([]byte, ckpt.MaxPayload)...), nil
}

// TestRunStreamRefusesSinkStateOverSnapshotBound: a sink state the
// snapshot could not hold fails the run with a clear error at the first
// frontier it would be recorded at.
func TestRunStreamRefusesSinkStateOverSnapshotBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	res, err := RunStream(context.Background(), StreamSpec{
		Source: countingSource(20), Sink: &bloatedSink{}, Seed: 42, Workers: 2,
		Checkpoint: Checkpoint{Path: path},
	})
	if err == nil || !strings.Contains(err.Error(), "stream sink state of 1048592 bytes exceeds the 1048576-byte bound") {
		t.Fatalf("err = %v, want the sink state refused at the snapshot bound", err)
	}
	if res.Committed != 1 || res.Exhausted {
		t.Fatalf("result %+v, want the run failed at frontier 1", res)
	}

	// The same sink streams happily when nothing is persisted.
	if _, err := RunStream(context.Background(), StreamSpec{
		Source: countingSource(20), Sink: &bloatedSink{}, Seed: 42, Workers: 2,
	}); err != nil {
		t.Fatalf("unpersisted stream: %v", err)
	}
}
