package distrun_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reskit/internal/distrun"
	"reskit/internal/engine"
	"reskit/internal/httpd"
	"reskit/internal/obs"
	"reskit/internal/rng"
)

// TestDistRefusesOversizedPayload: a submitted payload too large for a
// snapshot record counts as a failure report against its job, exactly
// like a Check rejection, instead of entering the ledger and poisoning
// every later snapshot write. The job is requeued, a healthy worker
// finishes the grid, and the run ends durable and bit-identical.
func TestDistRefusesOversizedPayload(t *testing.T) {
	const n = 4
	want := localReference(t, n)
	ctx := context.Background()
	reg := obs.NewRegistry()
	cfg := fastCoordinator(n)
	cfg.Checkpoint = engine.Checkpoint{Path: filepath.Join(t.TempDir(), "dist.ckpt"), Interval: time.Nanosecond}
	cfg.MinLease = n // the bloated client grabs the whole grid
	cfg.Reg = reg
	h := startHarness(t, ctx, cfg)

	id := distrun.RunID{Fingerprint: httpd.Hex64(testFP), Seed: httpd.Hex64(testSeed), NumJobs: n}
	cl := httpd.NewClient()
	var lr distrun.LeaseResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathLease, distrun.LeaseRequest{RunID: id, Worker: "bloated"}, &lr); err != nil {
		t.Fatalf("lease: %v", err)
	}
	req := distrun.ResultRequest{RunID: id, Worker: "bloated", Lease: lr.Lease,
		Results: []distrun.JobResultWire{{Job: 0, Payload: make([]byte, 2<<20)}}}
	var rr distrun.ResultResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathResult, req, &rr); err != nil {
		t.Fatalf("oversized submit: %v", err)
	}
	if rr.Accepted != 0 || rr.Done {
		t.Fatalf("oversized submit: accepted=%d done=%v, want the payload refused", rr.Accepted, rr.Done)
	}

	for _, werr := range runWorkers(ctx, h.url, n, 1) {
		if werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	res, err := h.wait(t)
	if err != nil {
		t.Fatalf("Wait: %v (the refused payload must not make the run state undurable)", err)
	}
	for i := range want {
		if !bytes.Equal(res.Payloads[i], want[i]) {
			t.Fatalf("job %d payload differs from local run", i)
		}
	}
	if got := reg.Counter("distrun.failure_reports").Value(); got != 1 {
		t.Fatalf("failure_reports = %d, want 1", got)
	}
}

// killedLocalRun runs the test grid through a checkpointed engine.Run
// that is cancelled once `after` jobs have completed, and returns the
// interrupted result.
func killedLocalRun(t *testing.T, n, after int, path string) *engine.Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	jobs := make([]engine.Job, n)
	for i := range jobs {
		j := testJob(i)
		inner := j.Run
		j.Run = func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			jr, err := inner(ctx, src)
			if err == nil && done.Add(1) == int64(after) {
				cancel()
			}
			return jr, err
		}
		jobs[i] = j
	}
	res, err := engine.Run(ctx, engine.Spec{
		Jobs: jobs, Seed: testSeed, Fingerprint: testFP, Workers: 2,
		Checkpoint: engine.Checkpoint{Path: path, Interval: time.Nanosecond},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted local run: err = %v, want context.Canceled", err)
	}
	if res.Done() == 0 || res.Done() == n {
		t.Fatalf("interrupted local run finished %d/%d jobs, want a genuine partial", res.Done(), n)
	}
	return res
}

// TestDistResumesLocalSnapshot: the snapshot of a killed local
// engine.Run resumes in a coordinator with a worker fleet — the two
// share one ledger and one snapshot image — which re-issues only the
// missing jobs and finishes bit-identical to an undisturbed run.
func TestDistResumesLocalSnapshot(t *testing.T) {
	const n = 40
	want := localReference(t, n)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	killed := killedLocalRun(t, n, n/3, path)

	cfg := fastCoordinator(n)
	cfg.Checkpoint = engine.Checkpoint{Path: path, Interval: time.Millisecond, Resume: true}
	ctx := context.Background()
	h := startHarness(t, ctx, cfg)
	if got := h.co.Stats().Restored; got != killed.Done() {
		t.Fatalf("coordinator restored %d jobs, the local run committed %d", got, killed.Done())
	}
	for _, werr := range runWorkers(ctx, h.url, n, 2) {
		if werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	res, err := h.wait(t)
	if err != nil {
		t.Fatalf("resumed Wait: %v", err)
	}
	if res.Restored != killed.Done() || res.Done() != n {
		t.Fatalf("resumed run: restored=%d done=%d, want %d restored and %d done", res.Restored, res.Done(), killed.Done(), n)
	}
	for i := range want {
		if !bytes.Equal(res.Payloads[i], want[i]) {
			t.Fatalf("job %d payload differs after a local kill and a distributed resume", i)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("completed distributed run left the snapshot behind (stat err %v)", err)
	}
}

// TestDistSnapshotResumesLocally: the reverse — a killed coordinator's
// snapshot resumes in a local engine.Run, which restores exactly the
// jobs the fleet committed and finishes bit-identical.
func TestDistSnapshotResumesLocally(t *testing.T) {
	const n = 40
	want := localReference(t, n)
	path := filepath.Join(t.TempDir(), "dist.ckpt")

	cfg := fastCoordinator(n)
	cfg.Checkpoint = engine.Checkpoint{Path: path, Interval: time.Millisecond}
	runCtx, cancelRun := context.WithCancel(context.Background())
	h := startHarness(t, runCtx, cfg)
	wctx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wcfg := fastWorker(h.url, "w0", n)
		wcfg.Job = slowJob(5 * time.Millisecond)
		distrun.RunWorker(wctx, wcfg) //nolint:errcheck // killed below
	}()
	deadline := time.Now().Add(20 * time.Second)
	for h.co.Stats().Done < n/3 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d jobs", n/3)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelRun()
	killed, err := h.wait(t)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Wait returned %v, want context.Canceled", err)
	}
	cancelWorkers()
	wg.Wait()

	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	res, err := engine.Run(context.Background(), engine.Spec{
		Jobs: jobs, Seed: testSeed, Fingerprint: testFP, Workers: 3,
		Checkpoint: engine.Checkpoint{Path: path, Interval: time.Millisecond, Resume: true},
	})
	if err != nil {
		t.Fatalf("local resume: %v", err)
	}
	if res.Restored != killed.Done() || res.Done() != n {
		t.Fatalf("local resume: restored=%d done=%d, want %d restored and %d done", res.Restored, res.Done(), killed.Done(), n)
	}
	for i := range want {
		if !bytes.Equal(res.Payloads[i], want[i]) {
			t.Fatalf("job %d payload differs after a distributed kill and a local resume", i)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("completed local run left the snapshot behind (stat err %v)", err)
	}
}
