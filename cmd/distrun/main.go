// Command distrun runs the campaign Monte-Carlo of cmd/simulate across
// machines: one coordinator process owns the job ledger and the durable
// snapshot, any number of worker processes lease blocks over HTTP and
// stream payloads back. The merged aggregate is bit-identical to a
// single-process `simulate -campaign` run of the same flags — and the
// two sides share snapshot files: a distributed run interrupted midway
// can be finished locally with `simulate -campaign -resume`, and vice
// versa, because both compute the identical configuration fingerprint.
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
// Exit codes follow cmd/simulate: 0 success, 1 failure, 3 interrupted
// by a signal (resumable), 4 completed degraded under -keep-going.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"reskit"
	"reskit/internal/distrun"
	"reskit/internal/engine"
	"reskit/internal/httpd"
	"reskit/internal/lawspec"
	"reskit/internal/obs"
	"reskit/internal/sim"
)

// Exit codes shared with cmd/simulate.
const (
	exitInterrupted = 3
	exitDegraded    = 4
)

var (
	errInterrupted = errors.New("interrupted by signal; the run is resumable")
	errDegraded    = errors.New("completed degraded: some jobs failed permanently")
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distrun:", err)
		if errors.Is(err, errInterrupted) {
			os.Exit(exitInterrupted)
		}
		if errors.Is(err, errDegraded) {
			os.Exit(exitDegraded)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("distrun", flag.ContinueOnError)
	// Campaign configuration — must be identical on coordinator and
	// workers; it is hashed into the run fingerprint that the protocol
	// verifies on every message.
	r := fs.Float64("R", 0, "reservation length (required)")
	ckptSpec := fs.String("ckpt", "", "checkpoint-duration law (required)")
	taskSpec := fs.String("task", "", "continuous task law")
	taskDiscSpec := fs.String("taskdisc", "", "discrete task law")
	recovery := fs.Float64("recovery", 0, "recovery time at reservation start")
	totalWork := fs.Float64("totalwork", 500, "total application work of the campaign")
	trials := fs.Int("trials", 100000, "Monte-Carlo trials")
	seed := fs.Uint64("seed", 1, "random seed")
	faultSpec := fs.String("faults", "", "fault plan, e.g. 'crash=exp:0.02,ckptfail=0.05'")
	mtbf := fs.Float64("mtbf", 0, "shorthand for -faults 'crash=exp:1/MTBF'")
	faultSweep := fs.String("faultsweep", "", "comma-separated MTBF grid; distributes the sweep of simulate -campaign -faultsweep (identical fingerprint, interchangeable snapshots)")

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
	if *r <= 0 {
		return errors.New("-R must be positive")
	}
	if *ckptSpec == "" {
		return errors.New("-ckpt is required")
	}
	ckpt, err := lawspec.Parse(*ckptSpec)
	if err != nil {
		return err
	}
	plan, err := reskit.ParseFaults(*faultSpec)
	if err != nil {
		return err
	}
	if *mtbf != 0 {
		if !(*mtbf > 0) {
			return errors.New("-mtbf must be positive")
		}
		crash, cerr := reskit.CrashExponential(1 / *mtbf)
		if cerr != nil {
			return cerr
		}
		if plan == nil {
			plan = &reskit.FaultPlan{}
		}
		plan.Crash = crash
	}
	if *resume && *checkpointPath == "" {
		return errors.New("-resume requires -checkpoint")
	}
	cfg, err := buildCampaign(*r, *recovery, *totalWork, *taskSpec, *taskDiscSpec, ckpt, plan)
	if err != nil {
		return err
	}

	// The exact fingerprint parts of simulate's campaign (or campaign
	// fault-sweep) mode: a snapshot written here resumes there and vice
	// versa, and a worker launched with different flags is rejected by
	// the coordinator.
	mode := "campaign"
	if *faultSweep != "" {
		mode = "campaign faultsweep=" + *faultSweep
	}
	fp := reskit.ConfigFingerprint(
		mode,
		fmt.Sprintf("R=%g", *r),
		fmt.Sprintf("recovery=%g", *recovery),
		"task="+*taskSpec,
		"taskdisc="+*taskDiscSpec,
		"ckpt="+*ckptSpec,
		fmt.Sprintf("totalwork=%g", *totalWork),
		fmt.Sprintf("faults=%v", plan),
		fmt.Sprintf("trials=%d", *trials),
		fmt.Sprintf("seed=%d", *seed),
	)
	// The job grid is simulate's own (sim.SweepGrid), so job i means the
	// same work on both sides. A plain campaign is a one-row grid.
	grid := sim.CampaignGrid(cfg, *trials)
	if *faultSweep != "" {
		if grid, err = sim.FaultSweepGrid(cfg, *faultSweep, *trials); err != nil {
			return fmt.Errorf("-faultsweep: %w", err)
		}
	}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	defer func() {
		if err == nil && sigCtx.Err() != nil {
			err = errInterrupted
		}
	}()

	if *workerURL != "" {
		return runWorker(sigCtx, out, *workerURL, *name, grid, *seed, fp,
			engine.Failure{Retries: *retries, Backoff: *retryBackoff, JobTimeout: *jobTimeout}, *workers)
	}
	return runCoordinator(sigCtx, out, coordinatorOpts{
		listen: *listen, addrFile: *addrFile,
		checkpoint:  engine.Checkpoint{Path: *checkpointPath, Interval: *checkpointInterval, Resume: *resume},
		keepGoing:   *keepGoing,
		jobAttempts: *jobAttempts,
		leaseTTL:    *leaseTTL, targetLease: *targetLease, minLease: *minLease, maxLease: *maxLease,
	}, grid, *seed, fp)
}

// buildCampaign assembles the campaign exactly as simulate's campaign
// mode does, so the job payloads are the same pure functions.
func buildCampaign(r, recovery, totalWork float64, taskSpec, taskDiscSpec string,
	ckpt reskit.Continuous, plan *reskit.FaultPlan) (reskit.CampaignConfig, error) {

	if !(totalWork > 0) {
		return reskit.CampaignConfig{}, errors.New("-totalwork must be positive")
	}
	base := reskit.SimConfig{R: r, Recovery: recovery, Ckpt: ckpt, Faults: plan}
	switch {
	case taskSpec != "":
		law, err := lawspec.Parse(taskSpec)
		if err != nil {
			return reskit.CampaignConfig{}, err
		}
		dyn, err := reskit.TryNewDynamic(r, law, ckpt)
		if err != nil {
			return reskit.CampaignConfig{}, err
		}
		base.Task = law
		base.Strategy = reskit.DynamicStrategy(dyn)
	case taskDiscSpec != "":
		law, err := lawspec.ParseDiscrete(taskDiscSpec)
		if err != nil {
			return reskit.CampaignConfig{}, err
		}
		dyn, err := reskit.TryNewDynamicDiscrete(r, law, ckpt)
		if err != nil {
			return reskit.CampaignConfig{}, err
		}
		base.TaskDisc = law
		base.Strategy = reskit.DynamicStrategy(dyn)
	default:
		return reskit.CampaignConfig{}, errors.New("-task or -taskdisc is required")
	}
	cfg := reskit.CampaignConfig{Reservation: base, TotalWork: totalWork}
	if err := cfg.Validate(); err != nil {
		return reskit.CampaignConfig{}, err
	}
	return cfg, nil
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
// the merged aggregate (complete runs) or the partial verdict.
func runCoordinator(ctx context.Context, out io.Writer, opts coordinatorOpts,
	grid *sim.SweepGrid, seed, fp uint64) error {

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
		if werr := reskit.WriteFileAtomic(opts.addrFile, []byte(srv.Addr().String()+"\n"), 0o644); werr != nil {
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
	// degradation is fatal: a job out of attempts without -keep-going,
	// an unusable restored payload, a dead snapshot disk.
	if runErr != nil && ctx.Err() == nil && len(res.Failed) == 0 {
		return runErr
	}
	st := co.Stats()
	if res.Done() == numJobs {
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		if grid.MTBFs != nil {
			// The same per-row trade-off table simulate's -faultsweep
			// prints, merged row by row from the row-major payload grid.
			fmt.Fprintf(tw, "MTBF\tE(lost)\tE(util)\tE(res)\tE(crashes)\tcompletion\n")
			for ri, m := range grid.MTBFs {
				agg, merr := sim.MergeCampaignPayloads(grid.Row(res.Payloads, ri))
				if merr != nil {
					return merr
				}
				fmt.Fprintf(tw, "%g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
					m, agg.LostWork, agg.Utilization, agg.Reservations, agg.Crashes, agg.CompletionRate)
			}
		} else {
			agg, merr := sim.MergeCampaignPayloads(res.Payloads)
			if merr != nil {
				return merr
			}
			fmt.Fprintf(tw, "mean reservations\t%.4g\n", agg.Reservations)
			fmt.Fprintf(tw, "mean utilization\t%.4g\n", agg.Utilization)
			fmt.Fprintf(tw, "mean lost work\t%.4g\n", agg.LostWork)
			fmt.Fprintf(tw, "completion rate\t%.4g\n", agg.CompletionRate)
			fmt.Fprintf(tw, "all completed\t%v\n", agg.CompletedAll)
		}
		fmt.Fprintf(tw, "wall time\t%v (%d workers seen)\n", elapsed.Round(time.Millisecond), st.Workers)
		if terr := tw.Flush(); terr != nil {
			return terr
		}
	} else {
		fmt.Fprintf(out, "distrun: %d/%d jobs done (%d restored) after %v\n",
			res.Done(), numJobs, res.Restored, elapsed.Round(time.Millisecond))
	}
	// Wait joins an engine.SnapshotError into its error when the final
	// snapshot flush failed — in that case the file on disk is stale and
	// must not be advertised as resumable.
	var snapErr *engine.SnapshotError
	flushFailed := errors.As(runErr, &snapErr)
	switch {
	case ctx.Err() != nil:
		if flushFailed {
			fmt.Fprintf(out, "checkpoint: final snapshot not persisted (%v); a resume replays work since the last good snapshot\n", snapErr.Err)
		} else if opts.checkpoint.Path != "" {
			fmt.Fprintf(out, "checkpoint: resumable snapshot at %s\n", opts.checkpoint.Path)
		}
		return errInterrupted
	case len(res.Failed) > 0:
		for _, fe := range res.Failed {
			fmt.Fprintf(out, "failed: %v\n", fe)
		}
		if flushFailed {
			fmt.Fprintf(out, "checkpoint: final snapshot not persisted (%v); a resume replays work since the last good snapshot\n", snapErr.Err)
		} else if opts.checkpoint.Path != "" {
			fmt.Fprintf(out, "checkpoint: failed jobs left out of %s; -resume retries exactly them\n", opts.checkpoint.Path)
		}
		return errDegraded
	}
	return nil
}

// runWorker joins the coordinator at url and executes leases until the
// run is over.
func runWorker(ctx context.Context, out io.Writer, url, name string, grid *sim.SweepGrid,
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
		return errInterrupted
	}
	return err
}
