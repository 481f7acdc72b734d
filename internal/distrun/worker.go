package distrun

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"reskit/internal/engine"
	"reskit/internal/httpd"
	"reskit/internal/obs"
)

// maxProtocolFailures is the number of consecutive failed protocol
// exchanges (lease or result, each already retried by the HTTP client)
// a worker tolerates before concluding the coordinator is gone.
const maxProtocolFailures = 5

// WorkerConfig describes one worker process. The worker must be built
// from the same configuration as the coordinator: Job(i) must construct
// the identical i-th job of the shared grid (same Stream, same Run
// closure over the same config), and the identity triple must match or
// the coordinator refuses every message with 409.
type WorkerConfig struct {
	// URL is the coordinator's base URL ("http://host:port").
	URL string

	// Name labels the worker in leases and metrics ("" derives
	// host:pid).
	Name string

	NumJobs     int
	Seed        uint64
	Fingerprint uint64

	// Job builds the i-th job of the shared grid.
	Job func(i int) engine.Job

	// Failure is the worker-local retry policy applied to each leased
	// batch. KeepGoing is forced on: a job that exhausts its local
	// budget is reported to the coordinator as a permanent failure —
	// the coordinator's own budget decides whether to try the job on
	// another worker — instead of killing this worker.
	Failure engine.Failure

	// Workers is the local parallelism within a leased batch
	// (engine.Spec.Workers semantics; <= 0 means all CPUs).
	Workers int

	// Client is the HTTP client ("" builds httpd.NewClient). The soak
	// tests install a chaos network plane through its transport seam.
	Client *httpd.Client

	Log io.Writer     // lease lifecycle lines (nil discards)
	Reg *obs.Registry // binds the worker's engine.* instruments
}

// RunWorker joins the run at cfg.URL and executes leases until the
// coordinator declares the run done (nil), the context is cancelled
// (ctx.Err(); the in-flight lease is abandoned and will expire and be
// requeued), the coordinator stays unreachable past the protocol
// failure budget, or a lease hits a non-retryable fault.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.URL == "" {
		return errors.New("distrun: worker needs a coordinator URL")
	}
	if cfg.NumJobs <= 0 {
		return fmt.Errorf("distrun: NumJobs must be positive, got %d", cfg.NumJobs)
	}
	if cfg.Job == nil {
		return errors.New("distrun: worker needs a Job factory")
	}
	if cfg.Name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Client == nil {
		cfg.Client = httpd.NewClient()
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	id := RunID{Fingerprint: httpd.Hex64(cfg.Fingerprint), Seed: httpd.Hex64(cfg.Seed), NumJobs: cfg.NumJobs}

	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		err := cfg.Client.PostJSON(ctx, cfg.URL+PathLease, LeaseRequest{RunID: id, Worker: cfg.Name}, &lr)
		if err != nil {
			if fails = protocolFailure(ctx, fails, err); fails < 0 {
				return fmt.Errorf("distrun: worker %s: leasing: %w", cfg.Name, err)
			}
			continue
		}
		fails = 0
		switch lr.Status {
		case StatusDone:
			fmt.Fprintf(logw, "distrun: worker %s: run done\n", cfg.Name)
			return nil
		case StatusWait:
			retry := time.Duration(lr.RetryMS) * time.Millisecond
			if retry <= 0 {
				retry = DefaultWaitRetry
			}
			if !httpd.SleepCtx(ctx, retry) {
				return ctx.Err()
			}
		case StatusLease:
			done, err := executeLease(ctx, cfg, id, &lr, logw)
			if err != nil {
				if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
					return ctx.Err()
				}
				if fails = protocolFailure(ctx, fails, err); fails < 0 {
					return fmt.Errorf("distrun: worker %s: %w", cfg.Name, err)
				}
				continue
			}
			if done {
				// The submission resolved the last open job: exit now
				// instead of racing the coordinator's shutdown for one
				// more lease request.
				fmt.Fprintf(logw, "distrun: worker %s: run done\n", cfg.Name)
				return nil
			}
		default:
			return fmt.Errorf("distrun: worker %s: unknown lease status %q", cfg.Name, lr.Status)
		}
	}
}

// protocolFailure books one failed exchange: it returns the new
// consecutive-failure count, or -1 when the budget is exhausted (or the
// context died) and the worker should give up. Between attempts it
// pauses with a linearly growing backoff.
func protocolFailure(ctx context.Context, fails int, err error) int {
	// A 409 means this worker belongs to a different run than the
	// coordinator: no retry can fix a configuration mismatch.
	var serr *httpd.StatusError
	if errors.As(err, &serr) && serr.Status == 409 {
		return -1
	}
	fails++
	if fails >= maxProtocolFailures || ctx.Err() != nil {
		return -1
	}
	if !httpd.SleepCtx(ctx, time.Duration(fails)*200*time.Millisecond) {
		return -1
	}
	return fails
}

// executeLease runs one leased batch through the engine — the same
// per-job substreams as a local run, because each job keeps its global
// Stream value — while a background goroutine heartbeats the lease,
// then submits payloads and permanent failures in one result request.
// done reports the coordinator's verdict that the run is over.
func executeLease(ctx context.Context, cfg WorkerConfig, id RunID, lr *LeaseResponse, logw io.Writer) (done bool, err error) {
	fmt.Fprintf(logw, "distrun: worker %s: lease %d (%d jobs)\n", cfg.Name, lr.Lease, len(lr.Jobs))

	ttl := time.Duration(lr.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hbCtx, stopHeartbeats := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		heartbeatLoop(hbCtx, cfg, lr.Lease, ttl/3)
	}()

	jobs := make([]engine.Job, len(lr.Jobs))
	for k, gi := range lr.Jobs {
		jobs[k] = cfg.Job(gi)
	}
	pol := cfg.Failure
	pol.KeepGoing = true
	res, runErr := engine.Run(ctx, engine.Spec{
		Jobs:        jobs,
		Seed:        cfg.Seed,
		Fingerprint: cfg.Fingerprint,
		Workers:     cfg.Workers,
		Failure:     pol,
		Reg:         cfg.Reg,
	})
	stopHeartbeats()
	<-hbDone

	if ctx.Err() != nil {
		// Killed mid-lease: abandon without submitting. The lease
		// expires and the coordinator requeues the jobs; anything this
		// engine run completed is simply recomputed elsewhere —
		// identical bytes by construction.
		return false, ctx.Err()
	}
	// With KeepGoing forced and no snapshot layer, the only error
	// engine.Run returns here is the joined permanent-failure report,
	// mirrored in res.Failed. Anything else (a job fabricating a
	// context error) is a programming bug worth surfacing — but the
	// completed payloads are still submitted first.
	fatal := runErr
	if len(res.Failed) > 0 {
		fatal = nil
	}

	req := ResultRequest{RunID: id, Worker: cfg.Name, Lease: lr.Lease}
	for k, gi := range lr.Jobs {
		if p := res.Payloads[k]; p != nil {
			req.Results = append(req.Results, JobResultWire{Job: gi, Payload: p})
		}
	}
	for _, fe := range res.Failed {
		req.Failed = append(req.Failed, JobFailureWire{
			Job:      lr.Jobs[fe.Job],
			Attempts: fe.Attempts,
			Error:    fe.Err.Error(),
		})
	}
	var rr ResultResponse
	if err := cfg.Client.PostJSON(ctx, cfg.URL+PathResult, req, &rr); err != nil {
		// The submission may or may not have landed (a dropped response
		// still delivered the request). Either way the ledger stays
		// consistent: the lease expires, unresolved jobs are requeued,
		// and a duplicate of anything that did land is absorbed.
		return false, fmt.Errorf("submitting lease %d: %w", lr.Lease, err)
	}
	fmt.Fprintf(logw, "distrun: worker %s: lease %d submitted (%d accepted, %d duplicate)\n",
		cfg.Name, lr.Lease, rr.Accepted, rr.Duplicate)
	if fatal != nil {
		return rr.Done, fmt.Errorf("lease %d: %w", lr.Lease, fatal)
	}
	return rr.Done, nil
}

// heartbeatLoop extends the lease every interval until cancelled. Every
// beat is best-effort: a lost or rejected heartbeat must not interrupt
// the computation, because even after the lease expires a late result
// is accepted idempotently.
func heartbeatLoop(ctx context.Context, cfg WorkerConfig, leaseID uint64, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			bctx, cancel := context.WithTimeout(ctx, interval)
			var hr HeartbeatResponse
			//nolint:errcheck // best-effort by design; see above
			cfg.Client.PostJSON(bctx, cfg.URL+PathHeartbeat, HeartbeatRequest{Worker: cfg.Name, Lease: leaseID}, &hr)
			cancel()
		}
	}
}
