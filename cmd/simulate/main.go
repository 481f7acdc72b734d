// Command simulate runs the Monte-Carlo experimental campaign the paper's
// conclusion calls for: it compares checkpoint strategies (oracle,
// dynamic, static, threshold, pessimistic, never) on a workflow
// reservation, or validates the analytical E(W(X)) of the preemptible
// scenario against simulation.
//
// Workflow strategy comparison (Figure 8 instance):
//
//	simulate -R 29 -task 'norm:3,0.5@[0,inf]' -ckpt 'norm:5,0.4@[0,inf]' -trials 100000
//
// Discrete tasks (Figure 10 instance):
//
//	simulate -R 29 -taskdisc 'poisson:3' -ckpt 'norm:5,0.4@[0,inf]'
//
// Preemptible validation (Figure 2a instance):
//
//	simulate -preempt -R 10 -ckpt 'exp:0.5@[1,5]' -trials 200000
//
// Multi-reservation campaign (Sections 1-2), sharded across all CPUs:
//
//	simulate -campaign -R 29 -task 'norm:3,0.5@[0,inf]' -ckpt 'norm:5,0.4@[0,inf]' \
//	    -recovery 1.5 -totalwork 500 -trials 1000
//
// Streaming campaign with a sequential stopping rule — trial blocks
// stream until the target's CI is tight enough or the budget runs out:
//
//	simulate -campaign -R 29 -task 'norm:3,0.5@[0,inf]' -ckpt 'norm:5,0.4@[0,inf]' \
//	    -recovery 1.5 -totalwork 500 -until-ci 'rel=0.005' -budget 200000
//
// Add -cpuprofile/-memprofile to profile any mode with runtime/pprof.
//
// Every mode runs on the shared job engine (internal/engine): the run
// is a grid of deterministic jobs — one Monte-Carlo block per strategy,
// policy, campaign or sweep cell — so -checkpoint/-resume gives any
// mode durable, bit-identical restarts, and SIGINT/SIGTERM always
// drains at the next job boundary before exiting with code 3.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"reskit"
	"reskit/cmd/internal/campaign"
)

func main() { campaign.Exit("simulate", run(os.Args[1:], os.Stdout)) }

// run executes one CLI invocation. Invalid inputs surface as errors
// (constructors are the TryNew* variants, laws are parsed); there is
// deliberately no recover() here — a panic that reaches this frame is a
// programming bug and should crash loudly with its stack trace.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var cf campaign.Flags
	cf.Register(fs)
	fs.Float64Var(&cf.CkptFail, "ckptfail", 0, "shorthand for -faults 'ckptfail=P' (Bernoulli checkpoint-commit failures)")
	preempt := fs.Bool("preempt", false, "validate the preemptible scenario instead")
	campaignMode := fs.Bool("campaign", false, "run a multi-reservation campaign Monte-Carlo instead")
	workers := fs.Int("workers", 0, "parallel workers (0 = all CPUs)")
	failRate := fs.Float64("failrate", 0, "fail-stop error rate inside the reservation (0 = failure-free)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget; the Monte-Carlo stops cleanly at the deadline and reports the trials completed")
	untilCI := fs.String("until-ci", "", "with -campaign: stream trial blocks until this stopping rule fires, e.g. 'rel=0.005,conf=0.99,min=5000,qtol=0.02' (a bare number means rel=); replaces -trials")
	stopTarget := fs.String("target", "util", "with -until-ci: the metric the stopping rule watches (util, lost, res)")
	budget := fs.Int("budget", 0, "with -campaign streaming: hard trial cap, rounded up to whole blocks (0 with -until-ci = unbounded); replaces -trials")
	checkpointPath := fs.String("checkpoint", "", "with -campaign: periodically snapshot run state to this file; an interrupted run can continue with -resume")
	checkpointInterval := fs.Duration("checkpoint-interval", 10*time.Second, "with -checkpoint: minimum interval between snapshots")
	resume := fs.Bool("resume", false, "with -checkpoint: restore completed blocks from the snapshot file and run only the missing ones")
	retries := fs.Int("retries", 0, "per-job retry budget for transient failures (a job runs at most retries+1 attempts)")
	retryBackoff := fs.Duration("retry-backoff", 0, "base of the deterministic exponential retry backoff (default 100ms when -retries > 0)")
	jobTimeout := fs.Duration("job-timeout", 0, "deadline per job attempt; a timed-out attempt is retryable under the -retries budget")
	keepGoing := fs.Bool("keep-going", false, "record permanently failed jobs and keep running the rest; exits with code 4 and leaves failed jobs resumable")
	failurePolicy := fs.String("failure-policy", "", "compact failure policy, e.g. 'retries=3,backoff=50ms,timeout=1m,keep-going' (mutually exclusive with the individual failure flags)")
	strategies := fs.String("strategies", "oracle,dynamic,static,threshold,pessimistic",
		"comma-separated strategies to compare")
	hist := fs.Bool("hist", false, "print an ASCII histogram of saved work for each strategy")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	progress := fs.Bool("progress", false, "print live trials/sec progress to stderr")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot (counters, histograms) to this file on exit")
	listenAddr := fs.String("listen", "", "serve live expvar metrics and pprof on this address (e.g. :6060)")
	tracePath := fs.String("trace", "", "stream sampled per-trial events (task ends, checkpoints, faults) to this JSONL file")
	traceEvery := fs.Int64("tracesample", 1000, "with -trace: record one trial in every N (<=1 traces all; sampling is by trial index, deterministic)")
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
	failure := reskit.EngineFailure{
		Retries:    *retries,
		Backoff:    *retryBackoff,
		JobTimeout: *jobTimeout,
		KeepGoing:  *keepGoing,
	}
	if *failurePolicy != "" {
		if failure != (reskit.EngineFailure{}) {
			return errors.New("-failure-policy is mutually exclusive with -retries/-retry-backoff/-job-timeout/-keep-going")
		}
		if failure, err = reskit.ParseEngineFailure(*failurePolicy); err != nil {
			return err
		}
	}
	// SIGINT/SIGTERM cancel the context: workers drain at the next block
	// boundary, partial aggregates are reported exactly, and (with
	// -checkpoint) a final snapshot lands on disk before the process exits
	// with the distinct "interrupted" code — which fires even when the
	// mode function finishes its partial report cleanly.
	sigCtx, finishSignals := campaign.Signals()
	defer finishSignals(&err)
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeMemProfile(*memProfile); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	// A single Monte-Carlo (campaign mode) has a known trial total for the
	// progress ETA, and a fault sweep repeats it per grid row; the workflow
	// mode runs one Monte-Carlo per strategy, so progress renders counts
	// and rate without a percentage.
	streaming := *campaignMode && (*untilCI != "" || *budget > 0)
	progressTotal := int64(0)
	switch {
	case streaming:
		// A budget bounds the stream (rounded up to whole blocks); without
		// one the total is unknown and progress renders counts and rate
		// with the live CI half-width instead of an ETA.
		progressTotal = int64(reskit.StreamBlocks(*budget)) * reskit.StreamBlockTrials
	case *campaignMode:
		progressTotal = int64(cf.Trials)
		if cf.FaultSweep != "" {
			progressTotal *= int64(len(strings.Split(cf.FaultSweep, ",")))
		}
	}
	// The saved-work distribution always feeds the "sim.saved_work"
	// quantile sketch; the legacy fixed-layout [0, R) histogram is bound
	// only while -hist keeps it alive.
	savedMax := 0.0
	if *hist {
		savedMax = cf.R
	}
	ob, err := setupObs(out, *progress, *metricsPath, *listenAddr, *tracePath, *traceEvery, savedMax, progressTotal)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := ob.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	// The fingerprint ties a snapshot to the configuration facets that
	// shape the payloads of the selected mode. Workers are deliberately
	// excluded: resuming with a different worker count is legal and still
	// bit-identical.
	ck := ckptOpts{path: *checkpointPath, interval: *checkpointInterval, resume: *resume, failure: failure}
	if streaming {
		if cf.FaultSweep != "" {
			return errors.New("-until-ci/-budget are incompatible with -faultsweep")
		}
		if failure.KeepGoing {
			return errors.New("-keep-going is incompatible with streaming (-until-ci/-budget): a permanently failed block would stall the commit frontier")
		}
		stop, err := reskit.ParseStopSpec(*untilCI)
		if err != nil {
			return fmt.Errorf("-until-ci: %w", err)
		}
		ck.fingerprint = cf.StreamFingerprint(plan, stop, *stopTarget)
		return runCampaignStream(ctx, out, &cf, ckpt, plan, stop, *stopTarget, *budget, *workers, ck, ob)
	}
	if *untilCI != "" || *budget > 0 {
		return errors.New("-until-ci and -budget require -campaign")
	}
	if *campaignMode {
		ck.fingerprint = cf.Fingerprint(plan)
		return runCampaignGrid(ctx, out, &cf, ckpt, plan, *workers, ck, ob)
	}
	if cf.FaultSweep != "" {
		return errors.New("-faultsweep requires -campaign")
	}
	if *preempt {
		ck.fingerprint = reskit.ConfigFingerprint(
			"preempt",
			fmt.Sprintf("R=%g", cf.R),
			"ckpt="+cf.Ckpt,
			fmt.Sprintf("trials=%d", cf.Trials),
			fmt.Sprintf("seed=%d", cf.Seed),
		)
		return runPreempt(ctx, out, cf.R, ckpt, cf.Trials, cf.Seed, *workers, ck, ob)
	}
	ck.fingerprint = reskit.ConfigFingerprint(
		"workflow",
		fmt.Sprintf("R=%g", cf.R),
		fmt.Sprintf("recovery=%g", cf.Recovery),
		fmt.Sprintf("failrate=%g", *failRate),
		"task="+cf.Task,
		"taskdisc="+cf.TaskDisc,
		"ckpt="+cf.Ckpt,
		"strategies="+*strategies,
		fmt.Sprintf("faults=%v", plan),
		fmt.Sprintf("trials=%d", cf.Trials),
		fmt.Sprintf("seed=%d", cf.Seed),
	)
	return runWorkflow(ctx, out, cf.R, cf.Recovery, *failRate, cf.Task, cf.TaskDisc, ckpt, cf.Trials, cf.Seed, *workers, *strategies, *hist, plan, ck, ob)
}
