package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"

	"reskit/internal/ckpt"
	"reskit/internal/obs"
	"reskit/internal/rng"
)

// hashJob builds a deterministic job whose payload is a pure function
// of its rng substream: 8 bytes of the stream's first draw.
func hashJob(i int) Job {
	return Job{
		Name:   fmt.Sprintf("job%d", i),
		Stream: uint64(i),
		Run: func(ctx context.Context, src *rng.Source) (JobResult, error) {
			if err := ctx.Err(); err != nil {
				return JobResult{}, err
			}
			return JobResult{Payload: binary.LittleEndian.AppendUint64(nil, src.Uint64())}, nil
		},
	}
}

func hashSpec(n int, workers int) Spec {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = hashJob(i)
	}
	return Spec{Jobs: jobs, Seed: 42, Fingerprint: 7, Workers: workers}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Run(context.Background(), hashSpec(23, 1))
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if ref.Done() != 23 || ref.Fresh != 23 || ref.Restored != 0 {
		t.Fatalf("workers=1: done=%d fresh=%d restored=%d", ref.Done(), ref.Fresh, ref.Restored)
	}
	for _, w := range []int{2, 4, 8, 0} {
		res, err := Run(context.Background(), hashSpec(23, w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range ref.Payloads {
			if !bytes.Equal(res.Payloads[i], ref.Payloads[i]) {
				t.Fatalf("workers=%d: payload %d differs", w, i)
			}
		}
	}
}

func TestRunEmptySpec(t *testing.T) {
	res, err := Run(context.Background(), Spec{})
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if res.Total() != 0 || res.Done() != 0 {
		t.Fatalf("empty spec: total=%d done=%d", res.Total(), res.Done())
	}
}

func TestRunWritesArtifactsAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out", "a.txt")
	spec := Spec{
		Seed: 1,
		Jobs: []Job{{
			Name: "artifact",
			Run: func(ctx context.Context, src *rng.Source) (JobResult, error) {
				return JobResult{
					Payload:   []byte("p"),
					Artifacts: []Artifact{{Path: path, Data: []byte("hello")}},
				}, nil
			},
		}},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("artifact = %q, %v", got, err)
	}
}

func TestRunJobFailureAborts(t *testing.T) {
	boom := errors.New("boom")
	spec := hashSpec(40, 4)
	spec.Jobs[17].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
		return JobResult{}, boom
	}
	_, err := Run(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "job 17 (job17)") {
		t.Fatalf("err = %v, want job index and name", err)
	}
}

// A job that fabricates a context error while the run is live must be
// treated as a failure, not silently dropped as an interruption.
func TestRunFabricatedContextErrorIsFailure(t *testing.T) {
	spec := hashSpec(8, 2)
	spec.Jobs[3].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
		return JobResult{}, context.Canceled
	}
	_, err := Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("err = %v, want job 3 failure", err)
	}
}

func TestRunCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	spec := Spec{Seed: 9, Workers: 4}
	for i := 0; i < 64; i++ {
		i := i
		spec.Jobs = append(spec.Jobs, Job{
			Name:   fmt.Sprintf("slow%d", i),
			Stream: uint64(i),
			Run: func(ctx context.Context, src *rng.Source) (JobResult, error) {
				started <- struct{}{}
				select {
				case <-ctx.Done():
					return JobResult{}, ctx.Err()
				case <-time.After(5 * time.Millisecond):
				}
				return JobResult{Payload: []byte{byte(i)}}, nil
			},
		})
	}
	go func() {
		<-started
		cancel()
	}()
	res, err := Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Done() == res.Total() {
		t.Fatal("expected an interrupted run, all jobs completed")
	}
}

func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	ref, err := Run(context.Background(), hashSpec(30, 3))
	if err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "run.ckpt")
	// First pass: cancel once roughly half the jobs have committed.
	ctx, cancel := context.WithCancel(context.Background())
	var log bytes.Buffer
	spec := hashSpec(30, 3)
	spec.Checkpoint = Checkpoint{Path: snap, Interval: time.Nanosecond}
	spec.Log = &log
	completed := make(chan struct{}, 30)
	for i := range spec.Jobs {
		run := spec.Jobs[i].Run
		spec.Jobs[i].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
			jr, err := run(ctx, src)
			if err == nil {
				completed <- struct{}{}
			}
			return jr, err
		}
	}
	go func() {
		for i := 0; i < 12; i++ {
			<-completed
		}
		cancel()
	}()
	first, err := Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first pass err = %v, want context.Canceled", err)
	}
	if first.Done() == 0 || first.Done() == 30 {
		t.Fatalf("first pass done = %d, want a genuine partial", first.Done())
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot missing after interruption: %v", err)
	}

	// Second pass: resume must restore the committed jobs, recompute the
	// rest, and reproduce the uninterrupted payloads bit-identically.
	spec2 := hashSpec(30, 5)
	spec2.Checkpoint = Checkpoint{Path: snap, Interval: time.Nanosecond, Resume: true}
	spec2.Log = &log
	spec2.Check = func(job int, payload []byte) error {
		if len(payload) != 8 {
			return fmt.Errorf("payload %d bytes", len(payload))
		}
		return nil
	}
	second, err := Run(context.Background(), spec2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if second.Restored == 0 || second.Restored+second.Fresh != 30 {
		t.Fatalf("resume: restored=%d fresh=%d", second.Restored, second.Fresh)
	}
	for i := range ref.Payloads {
		if !bytes.Equal(second.Payloads[i], ref.Payloads[i]) {
			t.Fatalf("resumed payload %d differs from uninterrupted run", i)
		}
	}
	if !strings.Contains(log.String(), "resume: restoring") {
		t.Fatalf("log = %q, want restore notice", log.String())
	}
	if _, err := os.Stat(snap); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot should be removed after completion, stat err = %v", err)
	}
}

func TestRunResumeFallbacks(t *testing.T) {
	dir := t.TempDir()

	t.Run("missing snapshot", func(t *testing.T) {
		var log bytes.Buffer
		spec := hashSpec(4, 2)
		spec.Checkpoint = Checkpoint{Path: filepath.Join(dir, "none.ckpt"), Resume: true}
		spec.Log = &log
		if _, err := Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(log.String(), "no usable snapshot") {
			t.Fatalf("log = %q", log.String())
		}
	})

	t.Run("garbage snapshot", func(t *testing.T) {
		path := filepath.Join(dir, "garbage.ckpt")
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		spec := hashSpec(4, 2)
		spec.Checkpoint = Checkpoint{Path: path, Resume: true}
		spec.Log = &log
		if _, err := Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(log.String(), "snapshot unusable") {
			t.Fatalf("log = %q", log.String())
		}
	})

	t.Run("mismatched snapshot", func(t *testing.T) {
		path := filepath.Join(dir, "mismatch.ckpt")
		other := ckpt.New(999, 42, 4)
		other.Records[0] = []byte{1}
		if err := other.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		spec := hashSpec(4, 2)
		spec.Checkpoint = Checkpoint{Path: path, Resume: true}
		spec.Log = &log
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Restored != 0 {
			t.Fatalf("restored = %d from a mismatched snapshot", res.Restored)
		}
		if !strings.Contains(log.String(), "does not match this run") {
			t.Fatalf("log = %q", log.String())
		}
	})
}

func TestRunRestoreCheckFailureAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	st := ckpt.New(7, 42, 4)
	st.Records[1] = []byte{0xde, 0xad}
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	spec := hashSpec(4, 2)
	spec.Checkpoint = Checkpoint{Path: path, Resume: true}
	spec.Check = func(job int, payload []byte) error {
		if len(payload) != 8 {
			return fmt.Errorf("payload %d bytes, want 8", len(payload))
		}
		return nil
	}
	_, err := Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "restoring job 1") {
		t.Fatalf("err = %v, want restore validation failure", err)
	}
}

func TestRunInstrumentsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	spec := hashSpec(6, 2)
	spec.Reg = reg
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["engine.jobs_total"]; got != 6 {
		t.Fatalf("engine.jobs_total = %v", got)
	}
	if got := snap.Counters["engine.jobs_done"]; got != 6 {
		t.Fatalf("engine.jobs_done = %v", got)
	}
}

func TestRunTicksProgress(t *testing.T) {
	p := obs.NewProgress(nil, "jobs", 6, time.Second)
	spec := hashSpec(6, 2)
	spec.Progress = p
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if p.Done() != 6 {
		t.Fatalf("progress done = %d, want 6", p.Done())
	}
}

// TestWorkerSourcesPadded pins the cache-line isolation of a worker's
// generators: at least 128 bytes of padding before src and after jit,
// so two workers' heap-allocated sources never share a line.
func TestWorkerSourcesPadded(t *testing.T) {
	var ws workerSources
	if head := unsafe.Offsetof(ws.src); head < 128 {
		t.Errorf("src starts %d bytes into workerSources, want >= 128", head)
	}
	if tail := unsafe.Sizeof(ws) - (unsafe.Offsetof(ws.jit) + unsafe.Sizeof(ws.jit)); tail < 128 {
		t.Errorf("jit ends %d bytes before the end of workerSources, want >= 128", tail)
	}
}
