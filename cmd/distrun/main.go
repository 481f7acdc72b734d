// Command distrun runs the campaign Monte-Carlo of cmd/simulate across
// machines: one coordinator process owns the job ledger and the durable
// snapshot, any number of worker processes lease blocks over HTTP and
// stream payloads back. Both commands build the campaign, its job grid
// and its fingerprint through cmd/internal/campaign, so the merged
// aggregate is bit-identical to a single-process `simulate -campaign`
// run of the same flags, and the two share snapshot files: a
// distributed run interrupted midway can be finished locally with
// `simulate -campaign -resume`, and vice versa.
//
// Coordinator:
//
//	distrun -R 60 -task exp:0.02 -ckpt uniform:5 -totalwork 500 \
//	        -trials 200000 -listen :8080 -checkpoint run.ckpt
//
// Workers (same campaign flags, plus the coordinator's address):
//
//	distrun -R 60 -task exp:0.02 -ckpt uniform:5 -totalwork 500 \
//	        -trials 200000 -worker http://coord:8080
//
// The coordinator prints simulate's result table. Exit codes follow
// cmd/simulate: 0 success, 1 failure, 3 interrupted by a signal, 4
// completed degraded under -keep-going.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"reskit/cmd/internal/campaign"
	"reskit/internal/atomicio"
	"reskit/internal/distrun"
	"reskit/internal/engine"
	"reskit/internal/httpd"
	"reskit/internal/obs"
	"reskit/internal/sim"
)

func main() { campaign.Exit("distrun", run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("distrun", flag.ContinueOnError)
	// Campaign configuration — must be identical on coordinator and
	// workers; it is hashed into the run fingerprint that the protocol
	// verifies on every message.
	var cf campaign.Flags
	cf.Register(fs)

	// Worker mode.
	workerURL := fs.String("worker", "", "run as a worker against this coordinator URL (empty: run as the coordinator)")
	name := fs.String("name", "", "worker name in leases and metrics (default host:pid)")
	workers := fs.Int("workers", 0, "local parallelism within a leased batch (0 = all CPUs)")
	retries := fs.Int("retries", 2, "worker-local per-job retry budget for transient failures")
	retryBackoff := fs.Duration("retry-backoff", 0, "base of the deterministic retry backoff (default 100ms when -retries > 0)")
	jobTimeout := fs.Duration("job-timeout", 0, "deadline per job attempt; a timed-out attempt is retryable")

	// Coordinator mode.
	listen := fs.String("listen", "127.0.0.1:0", "coordinator listen address")
	addrFile := fs.String("addr-file", "", "write the bound coordinator address to this file (useful with -listen :0)")
	checkpointPath := fs.String("checkpoint", "", "snapshot run state to this file; interchangeable with simulate -campaign -checkpoint")
	checkpointInterval := fs.Duration("checkpoint-interval", 10*time.Second, "minimum interval between snapshots")
	resume := fs.Bool("resume", false, "restore completed blocks from -checkpoint before issuing leases")
	keepGoing := fs.Bool("keep-going", false, "record permanently failed jobs and finish the rest; exits with code 4")
	jobAttempts := fs.Int("job-attempts", distrun.DefaultJobAttempts, "permanent failure reports per job before giving up")
	leaseTTL := fs.Duration("lease-ttl", distrun.DefaultLeaseTTL, "lease heartbeat deadline before requeue")
	targetLease := fs.Duration("target-lease", distrun.DefaultTargetLease, "target wall time per lease; batch sizes adapt to it")
	minLease := fs.Int("min-lease", 1, "minimum jobs per lease")
	maxLease := fs.Int("max-lease", distrun.DefaultMaxLease, "maximum jobs per lease")

	if err := fs.Parse(args); err != nil {
		return err
	}
	ckpt, plan, err := cf.Parse()
	if err != nil {
		return err
	}
	if *resume && *checkpointPath == "" {
		return errors.New("-resume requires -checkpoint")
	}
	// The campaign, its job grid and its fingerprint are simulate's own,
	// so job i means the same work on both sides, a snapshot written here
	// resumes there and vice versa, and a worker launched with different
	// flags is rejected by the coordinator.
	cfg, _, err := cf.Config(ckpt, plan, nil)
	if err != nil {
		return err
	}
	grid, err := cf.Grid(cfg)
	if err != nil {
		return err
	}
	fp := cf.Fingerprint(plan)

	ctx, finishSignals := campaign.Signals()
	defer finishSignals(&err)

	if *workerURL != "" {
		return runWorker(ctx, out, *workerURL, *name, grid, cf.Seed, fp,
			engine.Failure{Retries: *retries, Backoff: *retryBackoff, JobTimeout: *jobTimeout}, *workers)
	}
	return runCoordinator(ctx, out, coordinatorOpts{
		listen: *listen, addrFile: *addrFile,
		checkpoint:  engine.Checkpoint{Path: *checkpointPath, Interval: *checkpointInterval, Resume: *resume},
		keepGoing:   *keepGoing,
		jobAttempts: *jobAttempts,
		leaseTTL:    *leaseTTL, targetLease: *targetLease, minLease: *minLease, maxLease: *maxLease,
	}, grid, plan.Active(), cf.Seed, fp)
}

type coordinatorOpts struct {
	listen, addrFile      string
	checkpoint            engine.Checkpoint
	keepGoing             bool
	jobAttempts           int
	leaseTTL, targetLease time.Duration
	minLease, maxLease    int
}

// runCoordinator serves the ledger until the run resolves, then prints
// simulate's result table (with the fault tallies when faults) and
// status block.
func runCoordinator(ctx context.Context, out io.Writer, opts coordinatorOpts,
	grid *sim.Grid, faults bool, seed, fp uint64) error {

	numJobs := grid.NumJobs()
	reg := obs.NewRegistry()
	progress := obs.NewProgress(os.Stderr, "jobs", int64(numJobs), time.Second)
	co, err := distrun.NewCoordinator(distrun.CoordinatorConfig{
		NumJobs:     numJobs,
		Seed:        seed,
		Fingerprint: fp,
		Checkpoint:  opts.checkpoint,
		Check:       grid.Check,
		JobName:     grid.JobName,
		JobAttempts: opts.jobAttempts,
		KeepGoing:   opts.keepGoing,
		LeaseTTL:    opts.leaseTTL,
		TargetLease: opts.targetLease,
		MinLease:    opts.minLease,
		MaxLease:    opts.maxLease,
		Log:         out,
		Reg:         reg,
		Progress:    progress,
	})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", co.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w, "reskit") //nolint:errcheck // client hung up
	})
	srv, err := httpd.Listen(opts.listen, mux)
	if err != nil {
		return err
	}
	defer srv.Shutdown(2 * time.Second)
	fmt.Fprintf(out, "distrun: coordinating %d jobs (%d trials) on %s\n", numJobs, grid.Trials, srv.Addr())
	if opts.addrFile != "" {
		if werr := atomicio.WriteFile(opts.addrFile, []byte(srv.Addr().String()+"\n"), 0o644); werr != nil {
			return werr
		}
	}

	start := time.Now()
	progress.Start(context.Background())
	res, runErr := co.Wait(ctx)
	progress.Stop()
	elapsed := time.Since(start)

	// Shutdown refuses new connections the moment it is called, so keep
	// serving for one more wait-retry cycle: workers parked in
	// StatusWait wake up, observe StatusDone, and exit cleanly instead
	// of dying on connection refused.
	if runErr == nil && ctx.Err() == nil {
		time.Sleep(2*distrun.DefaultWaitRetry + 100*time.Millisecond)
	}

	// A failure that is neither an interruption nor the keep-going
	// degradation is fatal: a job out of attempts without -keep-going, an
	// unusable restored payload. The rest report as simulate does.
	if err := campaign.HardFailure(ctx, runErr, res); err != nil {
		return err
	}
	rep := campaign.Report{Ctx: ctx, Out: out, Path: opts.checkpoint.Path}
	if err := rep.Table(grid, res.Payloads, faults, runErr, elapsed); err != nil {
		return err
	}
	fmt.Fprintf(out, "distrun: %d/%d jobs done (%d restored) in %v, %d workers seen\n",
		res.Done(), numJobs, res.Restored, elapsed.Round(time.Millisecond), co.Stats().Workers)
	return rep.Finish(runErr, res)
}

// runWorker joins the coordinator at url and executes leases until the
// run is over.
func runWorker(ctx context.Context, out io.Writer, url, name string, grid *sim.Grid,
	seed, fp uint64, failure engine.Failure, workers int) error {

	err := distrun.RunWorker(ctx, distrun.WorkerConfig{
		URL:         url,
		Name:        name,
		NumJobs:     grid.NumJobs(),
		Seed:        seed,
		Fingerprint: fp,
		Job:         grid.Job,
		Failure:     failure,
		Workers:     workers,
		Log:         out,
	})
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		return campaign.ErrInterrupted
	}
	return err
}
