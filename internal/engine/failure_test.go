package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/obs"
	"reskit/internal/rng"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	pol := Failure{Retries: 10, Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	var jit rng.Source
	prevMid := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := pol.backoff(42, 7, attempt, &jit)
		d2 := pol.backoff(42, 7, attempt, &jit)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		// Jitter keeps the delay in [d/2, d) of the capped exponential.
		if d1 > pol.MaxBackoff {
			t.Fatalf("attempt %d: %v exceeds cap %v", attempt, d1, pol.MaxBackoff)
		}
		if d1 < pol.Backoff/2 {
			t.Fatalf("attempt %d: %v below half the base", attempt, d1)
		}
		if attempt <= 3 && d1 < prevMid {
			// expected growth in the uncapped region (loose: compare to
			// the previous draw's half-point).
			t.Logf("attempt %d: %v (prev %v)", attempt, d1, prevMid)
		}
		prevMid = d1 / 2
		if other := pol.backoff(42, 8, attempt, &jit); other == d1 {
			t.Fatalf("attempt %d: jobs 7 and 8 drew identical jitter %v", attempt, d1)
		}
	}
}

func TestRunRetriesTransientErrors(t *testing.T) {
	ref, err := Run(context.Background(), hashSpec(12, 2))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	spec := hashSpec(12, 2)
	spec.Reg = reg
	spec.Failure = Failure{Retries: 3, Backoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond}
	var calls atomic.Int64
	inner := spec.Jobs[5].Run
	spec.Jobs[5].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
		if calls.Add(1) <= 2 {
			return JobResult{}, errors.New("flaky sink")
		}
		return inner(ctx, src)
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run with retries: %v", err)
	}
	for i := range ref.Payloads {
		if !bytes.Equal(res.Payloads[i], ref.Payloads[i]) {
			t.Fatalf("payload %d differs from undisturbed run", i)
		}
	}
	if got := reg.Snapshot().Counters["engine.job_retries"]; got != 2 {
		t.Fatalf("engine.job_retries = %d, want 2", got)
	}
}

func TestRunJobTimeoutRetries(t *testing.T) {
	ref, err := Run(context.Background(), hashSpec(6, 2))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	spec := hashSpec(6, 2)
	spec.Reg = reg
	spec.Failure = Failure{Retries: 2, Backoff: time.Microsecond, JobTimeout: 30 * time.Millisecond}
	var calls atomic.Int64
	inner := spec.Jobs[3].Run
	spec.Jobs[3].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // hang until the attempt deadline collects it
			return JobResult{}, ctx.Err()
		}
		return inner(ctx, src)
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run with job timeout: %v", err)
	}
	for i := range ref.Payloads {
		if !bytes.Equal(res.Payloads[i], ref.Payloads[i]) {
			t.Fatalf("payload %d differs from undisturbed run", i)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine.job_timeouts"]; got != 1 {
		t.Fatalf("engine.job_timeouts = %d, want 1", got)
	}
	if got := snap.Counters["engine.job_retries"]; got != 1 {
		t.Fatalf("engine.job_retries = %d, want 1", got)
	}
}

func TestRunRetryBudgetExhausted(t *testing.T) {
	spec := hashSpec(4, 2)
	spec.Failure = Failure{Retries: 2, Backoff: time.Microsecond}
	boom := errors.New("dead sink")
	spec.Jobs[1].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
		return JobResult{}, boom
	}
	_, err := Run(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want attempt count", err)
	}
}

func TestRunKeepGoingRecordsFailuresAndStaysResumable(t *testing.T) {
	ref, err := Run(context.Background(), hashSpec(10, 2))
	if err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "run.ckpt")
	reg := obs.NewRegistry()
	spec := hashSpec(10, 3)
	spec.Reg = reg
	spec.Checkpoint = Checkpoint{Path: snap, Interval: time.Nanosecond}
	spec.Failure = Failure{Retries: 1, Backoff: time.Microsecond, KeepGoing: true}
	boom := errors.New("permanently broken")
	spec.Jobs[4].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
		return JobResult{}, boom
	}
	res, err := Run(context.Background(), spec)
	if err == nil {
		t.Fatal("keep-going run with a permanent failure must return the multi-error")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Job != 4 || je.Attempts != 2 {
		t.Fatalf("err = %v, want JobError{Job: 4, Attempts: 2}", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if len(res.Failed) != 1 || res.Failed[0].Job != 4 {
		t.Fatalf("res.Failed = %v, want job 4", res.Failed)
	}
	if res.Payloads[4] != nil {
		t.Fatal("failed job must keep a nil payload slot")
	}
	if res.Fresh != 9 {
		t.Fatalf("fresh = %d, want 9 (the run kept going)", res.Fresh)
	}
	if got := reg.Snapshot().Counters["engine.jobs_failed"]; got != 1 {
		t.Fatalf("engine.jobs_failed = %d, want 1", got)
	}
	if _, serr := os.Stat(snap); serr != nil {
		t.Fatalf("snapshot must survive a degraded run: %v", serr)
	}

	// Resume with the job fixed: only the failed job reruns, and the
	// final payloads match the undisturbed run bit for bit.
	spec2 := hashSpec(10, 2)
	spec2.Checkpoint = Checkpoint{Path: snap, Interval: time.Nanosecond, Resume: true}
	res2, err := Run(context.Background(), spec2)
	if err != nil {
		t.Fatalf("resume after degraded run: %v", err)
	}
	if res2.Restored != 9 || res2.Fresh != 1 {
		t.Fatalf("resume restored=%d fresh=%d, want 9/1", res2.Restored, res2.Fresh)
	}
	for i := range ref.Payloads {
		if !bytes.Equal(res2.Payloads[i], ref.Payloads[i]) {
			t.Fatalf("payload %d differs after degraded run + resume", i)
		}
	}
	if _, serr := os.Stat(snap); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("snapshot should be removed after completion: %v", serr)
	}
	if _, serr := os.Stat(ckpt.PrevGeneration(snap)); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("previous generation should be removed after completion: %v", serr)
	}
}

func TestRunSnapshotGenerationFallback(t *testing.T) {
	ref, err := Run(context.Background(), hashSpec(16, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt a checkpointed run late enough that at least two
	// snapshot generations exist.
	snap := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	spec := hashSpec(16, 2)
	spec.Checkpoint = Checkpoint{Path: snap, Interval: time.Nanosecond}
	completed := make(chan struct{}, 16)
	for i := range spec.Jobs {
		inner := spec.Jobs[i].Run
		spec.Jobs[i].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
			jr, err := inner(ctx, src)
			if err == nil {
				completed <- struct{}{}
			}
			return jr, err
		}
	}
	go func() {
		for i := 0; i < 8; i++ {
			<-completed
		}
		cancel()
	}()
	if _, err := Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v", err)
	}
	if _, err := os.Stat(ckpt.PrevGeneration(snap)); err != nil {
		t.Fatalf("previous generation missing: %v", err)
	}

	// Corrupt the head snapshot; resume must fall back to the previous
	// generation and still finish bit-identically.
	if err := os.WriteFile(snap, []byte("scribbled over by a dying disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	spec2 := hashSpec(16, 4)
	spec2.Checkpoint = Checkpoint{Path: snap, Interval: time.Nanosecond, Resume: true}
	spec2.Log = &log
	res, err := Run(context.Background(), spec2)
	if err != nil {
		t.Fatalf("resume from previous generation: %v", err)
	}
	if res.Restored == 0 {
		t.Fatalf("nothing restored; log = %q", log.String())
	}
	if !strings.Contains(log.String(), "snapshot unusable at "+snap) {
		t.Fatalf("log must report the corrupt head: %q", log.String())
	}
	if !strings.Contains(log.String(), ckpt.PrevGeneration(snap)) {
		t.Fatalf("log must name the fallback generation: %q", log.String())
	}
	for i := range ref.Payloads {
		if !bytes.Equal(res.Payloads[i], ref.Payloads[i]) {
			t.Fatalf("payload %d differs after generation fallback", i)
		}
	}
}

// A drained interruption on a dead disk must not masquerade as a
// resumable exit: the engine surfaces a SnapshotError instead of a bare
// ctx.Err().
func TestRunInterruptedWithDeadDiskReportsSnapshotLoss(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "no", "such", "dir", "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	spec := hashSpec(8, 2)
	spec.Checkpoint = Checkpoint{Path: snap, Interval: time.Hour} // only the final flush writes
	completed := make(chan struct{}, 8)
	for i := range spec.Jobs {
		inner := spec.Jobs[i].Run
		spec.Jobs[i].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
			jr, err := inner(ctx, src)
			if err == nil {
				completed <- struct{}{}
			}
			return jr, err
		}
	}
	go func() {
		<-completed
		cancel()
	}()
	_, err := Run(ctx, spec)
	var serr *SnapshotError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want SnapshotError", err)
	}
}

func TestRunKeepGoingFlushesSnapshotEvenWithFailures(t *testing.T) {
	// With a long interval, the only snapshot write is the final flush;
	// a degraded run must still perform it.
	snap := filepath.Join(t.TempDir(), "run.ckpt")
	spec := hashSpec(6, 2)
	spec.Checkpoint = Checkpoint{Path: snap, Interval: time.Hour}
	spec.Failure = Failure{KeepGoing: true}
	spec.Jobs[2].Run = func(ctx context.Context, src *rng.Source) (JobResult, error) {
		return JobResult{}, errors.New("permanent")
	}
	res, err := Run(context.Background(), spec)
	if err == nil || len(res.Failed) != 1 {
		t.Fatalf("err=%v failed=%v", err, res.Failed)
	}
	st, lerr := ckpt.Load(snap)
	if lerr != nil {
		t.Fatalf("degraded run must flush its snapshot: %v", lerr)
	}
	if st.Done() != 5 {
		t.Fatalf("snapshot holds %d jobs, want 5 completed", st.Done())
	}
}

func TestRunRejectsInvalidPolicy(t *testing.T) {
	for _, f := range []Failure{
		{Retries: -1},
		{Retries: maxRetries + 1},
		{Backoff: -time.Millisecond},
		{MaxBackoff: -time.Millisecond},
		{Backoff: time.Second, MaxBackoff: time.Millisecond},
		{JobTimeout: -time.Second},
	} {
		spec := hashSpec(2, 1)
		spec.Failure = f
		if _, err := Run(context.Background(), spec); err == nil {
			t.Errorf("policy %+v must be rejected", f)
		}
	}
}

func TestJobErrorFormatting(t *testing.T) {
	je := &JobError{Job: 3, Name: "mtbf=50/block3", Attempts: 4, Err: errors.New("boom")}
	msg := je.Error()
	for _, want := range []string{"job 3", "mtbf=50/block3", "4 attempt", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("JobError = %q, want %q", msg, want)
		}
	}
	if got := fmt.Sprintf("%v", errors.Unwrap(je)); got != "boom" {
		t.Fatalf("Unwrap = %q", got)
	}
}
