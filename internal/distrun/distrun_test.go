package distrun_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"reskit/internal/distrun"
	"reskit/internal/engine"
	"reskit/internal/httpd"
	"reskit/internal/obs"
	"reskit/internal/rng"
)

const (
	testSeed = uint64(0xfeedbeef12345678)
	testFP   = uint64(0x00d15742d15742aa)
)

// testJob builds job i of the shared test grid: a deterministic mix of
// 32 substream draws, so the payload is a pure function of (seed, i).
func testJob(i int) engine.Job {
	return engine.Job{
		Name:   fmt.Sprintf("job%d", i),
		Stream: uint64(i),
		Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			var h uint64 = 1469598103934665603
			for k := 0; k < 32; k++ {
				h = (h ^ src.Uint64()) * 1099511628211
			}
			payload := make([]byte, 8)
			binary.LittleEndian.PutUint64(payload, h)
			return engine.JobResult{Payload: payload}, nil
		},
	}
}

// slowJob wraps the test grid with a per-job pause so a test can catch
// the run mid-flight; the payload is untouched, so reference payloads
// from the plain grid still apply.
func slowJob(d time.Duration) func(int) engine.Job {
	return func(i int) engine.Job {
		j := testJob(i)
		inner := j.Run
		j.Run = func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			select {
			case <-ctx.Done():
				return engine.JobResult{}, ctx.Err()
			case <-time.After(d):
			}
			return inner(ctx, src)
		}
		return j
	}
}

// localReference runs the same grid through the local engine.
func localReference(t *testing.T, n int) [][]byte {
	t.Helper()
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	res, err := engine.Run(context.Background(), engine.Spec{
		Jobs: jobs, Seed: testSeed, Fingerprint: testFP,
	})
	if err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	return res.Payloads
}

// harness wires one coordinator behind a real HTTP listener and runs
// Wait in the background.
type harness struct {
	co  *distrun.Coordinator
	srv *httpd.Server
	url string

	res  *engine.Result
	err  error
	done chan struct{}
}

func startHarness(t *testing.T, ctx context.Context, cfg distrun.CoordinatorConfig) *harness {
	t.Helper()
	co, err := distrun.NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv, err := httpd.Listen("127.0.0.1:0", co.Handler())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	h := &harness{co: co, srv: srv, url: "http://" + srv.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.res, h.err = co.Wait(ctx)
	}()
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	return h
}

// wait blocks for the coordinator's verdict.
func (h *harness) wait(t *testing.T) (*engine.Result, error) {
	t.Helper()
	select {
	case <-h.done:
		return h.res, h.err
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator did not finish")
		return nil, nil
	}
}

// fastCoordinator returns a config tuned for test latencies.
func fastCoordinator(n int) distrun.CoordinatorConfig {
	return distrun.CoordinatorConfig{
		NumJobs:     n,
		Seed:        testSeed,
		Fingerprint: testFP,
		LeaseTTL:    300 * time.Millisecond,
		TargetLease: 20 * time.Millisecond,
		MaxLease:    8,
		WaitRetry:   10 * time.Millisecond,
	}
}

func fastWorker(url, name string, n int) distrun.WorkerConfig {
	cl := httpd.NewClient()
	cl.SetRetry(2, 20*time.Millisecond)
	return distrun.WorkerConfig{
		URL: url, Name: name, NumJobs: n,
		Seed: testSeed, Fingerprint: testFP,
		Job: testJob, Workers: 2, Client: cl,
	}
}

// runWorkers runs count workers to completion and returns their errors.
func runWorkers(ctx context.Context, url string, n, count int) []error {
	errs := make([]error, count)
	var wg sync.WaitGroup
	for w := 0; w < count; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = distrun.RunWorker(ctx, fastWorker(url, fmt.Sprintf("w%d", w), n))
		}(w)
	}
	wg.Wait()
	return errs
}

// TestDistBitIdentity: a distributed run with any worker count yields
// payloads bit-identical to a single-process engine run of the same
// grid.
func TestDistBitIdentity(t *testing.T) {
	const n = 40
	want := localReference(t, n)
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx := context.Background()
			h := startHarness(t, ctx, fastCoordinator(n))
			for _, werr := range runWorkers(ctx, h.url, n, workers) {
				if werr != nil {
					t.Errorf("worker: %v", werr)
				}
			}
			res, err := h.wait(t)
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if res.Done() != n || res.Fresh != n {
				t.Fatalf("Done=%d Fresh=%d, want %d fresh", res.Done(), res.Fresh, n)
			}
			for i := range want {
				if !bytes.Equal(res.Payloads[i], want[i]) {
					t.Fatalf("job %d payload differs from local run", i)
				}
			}
		})
	}
}

// TestDistLeaseExpiryRequeueAndLateDedup: a leaseholder that never
// heartbeats loses its lease to the reaper, the jobs are requeued and
// completed by a live worker, and the stalled holder's late submission
// is absorbed as duplicates without corrupting the ledger.
func TestDistLeaseExpiryRequeueAndLateDedup(t *testing.T) {
	const n = 12
	want := localReference(t, n)
	ctx := context.Background()
	reg := obs.NewRegistry()
	cfg := fastCoordinator(n)
	cfg.LeaseTTL = 150 * time.Millisecond
	cfg.MinLease = n // the stalled client grabs the whole grid
	cfg.Reg = reg
	h := startHarness(t, ctx, cfg)

	id := distrun.RunID{Fingerprint: httpd.Hex64(testFP), Seed: httpd.Hex64(testSeed), NumJobs: n}
	cl := httpd.NewClient()
	var lr distrun.LeaseResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathLease, distrun.LeaseRequest{RunID: id, Worker: "stalled"}, &lr); err != nil {
		t.Fatalf("stalled lease: %v", err)
	}
	if lr.Status != distrun.StatusLease || len(lr.Jobs) != n {
		t.Fatalf("stalled lease got status %q with %d jobs, want the full grid", lr.Status, len(lr.Jobs))
	}

	// No heartbeat: the reaper expires the lease and a live worker
	// finishes the requeued jobs.
	if errs := runWorkers(ctx, h.url, n, 1); errs[0] != nil {
		t.Fatalf("live worker: %v", errs[0])
	}
	res, err := h.wait(t)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}

	// The stalled holder finally "finishes" and submits everything.
	req := distrun.ResultRequest{RunID: id, Worker: "stalled", Lease: lr.Lease}
	for _, gi := range lr.Jobs {
		src := rng.NewStream(testSeed, uint64(gi))
		jr, jerr := testJob(gi).Run(ctx, src)
		if jerr != nil {
			t.Fatalf("stalled compute: %v", jerr)
		}
		req.Results = append(req.Results, distrun.JobResultWire{Job: gi, Payload: jr.Payload})
	}
	var rr distrun.ResultResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathResult, req, &rr); err != nil {
		t.Fatalf("late submit: %v", err)
	}
	if rr.Accepted != 0 || rr.Duplicate != n || !rr.Done {
		t.Fatalf("late submit: accepted=%d duplicate=%d done=%v, want 0/%d/true", rr.Accepted, rr.Duplicate, rr.Done, n)
	}
	for i := range want {
		if !bytes.Equal(res.Payloads[i], want[i]) {
			t.Fatalf("job %d payload differs after expiry+requeue", i)
		}
	}
	if got := reg.Counter("distrun.leases_expired").Value(); got < 1 {
		t.Fatalf("leases_expired = %d, want >= 1", got)
	}
	if got := reg.Counter("distrun.jobs_requeued").Value(); got < int64(n) {
		t.Fatalf("jobs_requeued = %d, want >= %d", got, n)
	}
	if got := reg.Counter("distrun.results_duplicate").Value(); got != int64(n) {
		t.Fatalf("results_duplicate = %d, want %d", got, n)
	}
}

// TestDistLateSuccessAfterGiveUp: a job exhausts its failure budget via
// reports from one worker while a requeued copy is still out on another
// worker that then succeeds. The success must win — evicted from the
// failed set, counted done exactly once — and the run must still
// terminate (done+failed overshooting NumJobs used to hang Wait
// forever).
func TestDistLateSuccessAfterGiveUp(t *testing.T) {
	const n = 2
	want := localReference(t, n)
	ctx := context.Background()
	reg := obs.NewRegistry()
	cfg := fastCoordinator(n)
	cfg.KeepGoing = true
	cfg.JobAttempts = 1
	cfg.MinLease = n
	cfg.Reg = reg
	h := startHarness(t, ctx, cfg)

	id := distrun.RunID{Fingerprint: httpd.Hex64(testFP), Seed: httpd.Hex64(testSeed), NumJobs: n}
	cl := httpd.NewClient()
	var lr distrun.LeaseResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathLease, distrun.LeaseRequest{RunID: id, Worker: "flaky"}, &lr); err != nil {
		t.Fatalf("flaky lease: %v", err)
	}
	if lr.Status != distrun.StatusLease || len(lr.Jobs) != n {
		t.Fatalf("flaky lease got status %q with %d jobs, want the full grid", lr.Status, len(lr.Jobs))
	}

	// The flaky worker burns job 0's whole failure budget; job 1 goes
	// back to the queue with the returned lease.
	fail := distrun.ResultRequest{
		RunID: id, Worker: "flaky", Lease: lr.Lease,
		Failed: []distrun.JobFailureWire{{Job: 0, Attempts: 1, Error: "synthetic permanent failure"}},
	}
	var fr distrun.ResultResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathResult, fail, &fr); err != nil {
		t.Fatalf("failure report: %v", err)
	}
	if fr.Done {
		t.Fatalf("run declared over with job 1 unresolved")
	}

	// A healthy worker picks up the requeue and — as under at-least-once
	// delivery with an earlier requeue of job 0 — submits successes for
	// both jobs, including the one already given up.
	var lr2 distrun.LeaseResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathLease, distrun.LeaseRequest{RunID: id, Worker: "healthy"}, &lr2); err != nil {
		t.Fatalf("healthy lease: %v", err)
	}
	good := distrun.ResultRequest{RunID: id, Worker: "healthy", Lease: lr2.Lease}
	for gi := 0; gi < n; gi++ {
		src := rng.NewStream(testSeed, uint64(gi))
		jr, jerr := testJob(gi).Run(ctx, src)
		if jerr != nil {
			t.Fatalf("healthy compute: %v", jerr)
		}
		good.Results = append(good.Results, distrun.JobResultWire{Job: gi, Payload: jr.Payload})
	}
	var gr distrun.ResultResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathResult, good, &gr); err != nil {
		t.Fatalf("late success submit: %v", err)
	}
	if gr.Accepted != n || gr.Duplicate != 0 || !gr.Done {
		t.Fatalf("late success: accepted=%d duplicate=%d done=%v, want %d/0/true", gr.Accepted, gr.Duplicate, gr.Done, n)
	}

	res, err := h.wait(t)
	if err != nil {
		t.Fatalf("Wait: %v (the withdrawn failure must not degrade the run)", err)
	}
	if res.Done() != n || len(res.Failed) != 0 {
		t.Fatalf("Done=%d Failed=%v, want %d done and no failures", res.Done(), res.Failed, n)
	}
	for i := range want {
		if !bytes.Equal(res.Payloads[i], want[i]) {
			t.Fatalf("job %d payload differs after failure withdrawal", i)
		}
	}
	if got := reg.Counter("distrun.jobs_unfailed").Value(); got != 1 {
		t.Fatalf("jobs_unfailed = %d, want 1", got)
	}
	if got := reg.Counter("distrun.jobs_failed").Value(); got != 1 {
		t.Fatalf("jobs_failed = %d, want 1", got)
	}
}

// TestDistDuplicateSubmission: the same result request delivered twice
// (a retransmission) is accepted once and absorbed once.
func TestDistDuplicateSubmission(t *testing.T) {
	const n = 6
	ctx := context.Background()
	cfg := fastCoordinator(n)
	cfg.MinLease = n
	h := startHarness(t, ctx, cfg)

	id := distrun.RunID{Fingerprint: httpd.Hex64(testFP), Seed: httpd.Hex64(testSeed), NumJobs: n}
	cl := httpd.NewClient()
	var lr distrun.LeaseResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathLease, distrun.LeaseRequest{RunID: id, Worker: "dup"}, &lr); err != nil {
		t.Fatalf("lease: %v", err)
	}
	req := distrun.ResultRequest{RunID: id, Worker: "dup", Lease: lr.Lease}
	for _, gi := range lr.Jobs {
		src := rng.NewStream(testSeed, uint64(gi))
		jr, _ := testJob(gi).Run(ctx, src)
		req.Results = append(req.Results, distrun.JobResultWire{Job: gi, Payload: jr.Payload})
	}
	var first, second distrun.ResultResponse
	if err := cl.PostJSON(ctx, h.url+distrun.PathResult, req, &first); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := cl.PostJSON(ctx, h.url+distrun.PathResult, req, &second); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if first.Accepted != n || first.Duplicate != 0 {
		t.Fatalf("first submit: accepted=%d duplicate=%d, want %d/0", first.Accepted, first.Duplicate, n)
	}
	if second.Accepted != 0 || second.Duplicate != n {
		t.Fatalf("second submit: accepted=%d duplicate=%d, want 0/%d", second.Accepted, second.Duplicate, n)
	}
	if res, err := h.wait(t); err != nil || res.Done() != n {
		t.Fatalf("Wait: res.Done=%d err=%v", res.Done(), err)
	}
}

// TestDistCoordinatorResume: killing the coordinator mid-run loses no
// committed work — a new coordinator over the same snapshot restores
// the completed jobs and the finished run is bit-identical.
func TestDistCoordinatorResume(t *testing.T) {
	const n = 60
	want := localReference(t, n)
	path := filepath.Join(t.TempDir(), "dist.ckpt")

	cfg := fastCoordinator(n)
	cfg.Checkpoint = engine.Checkpoint{Path: path, Interval: time.Millisecond}
	runCtx, cancelRun := context.WithCancel(context.Background())
	h := startHarness(t, runCtx, cfg)

	// One worker chews on the grid until a third is done, then the
	// coordinator is killed.
	wctx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		wcfg := fastWorker(h.url, "w0", n)
		wcfg.Job = slowJob(5 * time.Millisecond)
		distrun.RunWorker(wctx, wcfg) //nolint:errcheck // killed below
	}()
	deadline := time.Now().Add(20 * time.Second)
	for h.co.Stats().Done < n/3 {
		if time.Now().After(deadline) {
			t.Fatalf("run never reached %d jobs", n/3)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelRun()
	res1, err1 := h.wait(t)
	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("interrupted Wait returned %v, want context.Canceled", err1)
	}
	doneAtKill := res1.Restored + res1.Fresh
	cancelWorkers()
	wwg.Wait()
	h.srv.Shutdown(time.Second)

	// Resurrected coordinator: only incomplete work is re-issued.
	cfg2 := fastCoordinator(n)
	cfg2.Checkpoint = engine.Checkpoint{Path: path, Interval: time.Millisecond, Resume: true}
	ctx := context.Background()
	h2 := startHarness(t, ctx, cfg2)
	if got := h2.co.Stats().Restored; got != doneAtKill {
		t.Fatalf("restored %d jobs, %d were committed at kill", got, doneAtKill)
	}
	for _, werr := range runWorkers(ctx, h2.url, n, 2) {
		if werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	res2, err2 := h2.wait(t)
	if err2 != nil {
		t.Fatalf("resumed Wait: %v", err2)
	}
	if res2.Restored != doneAtKill || res2.Done() != n {
		t.Fatalf("resumed run: restored=%d done=%d, want %d restored and %d done", res2.Restored, res2.Done(), doneAtKill, n)
	}
	for i := range want {
		if !bytes.Equal(res2.Payloads[i], want[i]) {
			t.Fatalf("job %d payload differs after coordinator kill+resume", i)
		}
	}
}

// TestDistRunIDMismatch: a worker built from different flags is turned
// away with 409 and gives up instead of polluting the ledger.
func TestDistRunIDMismatch(t *testing.T) {
	const n = 4
	ctx := context.Background()
	h := startHarness(t, ctx, fastCoordinator(n))

	wcfg := fastWorker(h.url, "alien", n)
	wcfg.Seed = testSeed + 1 // a different run
	err := distrun.RunWorker(ctx, wcfg)
	if err == nil {
		t.Fatalf("mismatched worker joined the run")
	}
	var serr *httpd.StatusError
	if !errors.As(err, &serr) || serr.Status != 409 {
		t.Fatalf("mismatched worker error = %v, want a 409 StatusError", err)
	}
	if h.co.Stats().Done != 0 {
		t.Fatalf("mismatched worker completed jobs")
	}
}

// TestDistKeepGoingBudget: a job that fails permanently on every worker
// exhausts the coordinator's report budget; under KeepGoing the run
// degrades exactly like a local keep-going run — every other payload
// present and correct, the poisoned job in Result.Failed.
func TestDistKeepGoingBudget(t *testing.T) {
	const n, bad = 14, 7
	want := localReference(t, n)
	poisoned := func(i int) engine.Job {
		j := testJob(i)
		if i == bad {
			j.Run = func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
				return engine.JobResult{}, errors.New("synthetic permanent failure")
			}
		}
		return j
	}

	ctx := context.Background()
	reg := obs.NewRegistry()
	cfg := fastCoordinator(n)
	cfg.KeepGoing = true
	cfg.JobAttempts = 2
	cfg.Reg = reg
	h := startHarness(t, ctx, cfg)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcfg := fastWorker(h.url, fmt.Sprintf("w%d", w), n)
			wcfg.Job = poisoned
			if werr := distrun.RunWorker(ctx, wcfg); werr != nil {
				t.Errorf("worker: %v", werr)
			}
		}(w)
	}
	wg.Wait()
	res, err := h.wait(t)
	if err == nil || !strings.Contains(err.Error(), "synthetic permanent failure") {
		t.Fatalf("degraded Wait error = %v, want the joined job failure", err)
	}
	var je *engine.JobError
	if !errors.As(err, &je) || je.Job != bad {
		t.Fatalf("degraded Wait error %v does not carry JobError for job %d", err, bad)
	}
	if len(res.Failed) != 1 || res.Failed[0].Job != bad {
		t.Fatalf("Failed = %+v, want exactly job %d", res.Failed, bad)
	}
	if res.Done() != n-1 {
		t.Fatalf("Done = %d, want %d", res.Done(), n-1)
	}
	for i := range want {
		if i == bad {
			if res.Payloads[i] != nil {
				t.Fatalf("poisoned job %d has a payload", i)
			}
			continue
		}
		if !bytes.Equal(res.Payloads[i], want[i]) {
			t.Fatalf("job %d payload differs in degraded run", i)
		}
	}
	if got := reg.Counter("distrun.failure_reports").Value(); got < 2 {
		t.Fatalf("failure_reports = %d, want >= 2", got)
	}
	if got := reg.Counter("distrun.jobs_failed").Value(); got != 1 {
		t.Fatalf("jobs_failed = %d, want 1", got)
	}

	// Without KeepGoing the same poison is fatal to the run.
	cfg2 := fastCoordinator(n)
	cfg2.JobAttempts = 1
	h2 := startHarness(t, ctx, cfg2)
	wcfg := fastWorker(h2.url, "w0", n)
	wcfg.Job = poisoned
	distrun.RunWorker(ctx, wcfg) //nolint:errcheck // run outcome checked via Wait
	if _, err := h2.wait(t); err == nil || !strings.Contains(err.Error(), "giving up after") {
		t.Fatalf("fail-fast Wait error = %v, want a fatal give-up", err)
	}
}
