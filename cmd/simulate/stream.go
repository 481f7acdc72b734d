package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"reskit"
	"reskit/cmd/internal/campaign"
)

// streamStopReason names why a streaming run ended, for the summary row.
func streamStopReason(ctx context.Context, sres *reskit.EngineStreamResult) string {
	switch {
	case sres.Stopped:
		return "ci target met"
	case sres.Exhausted:
		return "trial budget exhausted"
	case ctx.Err() != nil:
		return campaign.StopMarker(ctx)
	default:
		return "run failed"
	}
}

// runCampaignStream is the open-ended flavor of runCampaignGrid: instead
// of a fixed trial grid, the campaign streams whole blocks through the
// engine until the -until-ci stopping rule fires on the -target metric
// or the -budget trial cap runs out. Blocks commit in strict index
// order, so the stopping frontier — and every printed aggregate — is
// bit-identical for any worker count, including runs killed and resumed
// from a -checkpoint frontier snapshot.
func runCampaignStream(ctx context.Context, out io.Writer, cf *campaign.Flags, ckpt reskit.Continuous,
	plan *reskit.FaultPlan, stop reskit.StopSpec, target string, budget, workers int, ck ckptOpts, ob *simObs) error {

	cfg, desc, err := cf.Config(ckpt, plan, ob.instrument)
	if err != nil {
		return err
	}
	cs, err := reskit.NewCampaignStream(cfg, stop, target)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "campaign stream: R=%g, %s, total work %g\n", cf.R, desc, cf.TotalWork)
	if stop.Active() {
		fmt.Fprintf(out, "until: %s CI %s (blocks of %d trials)\n", cs.Target(), stop, reskit.StreamBlockTrials)
	}
	maxBlocks := reskit.StreamBlocks(budget)
	if budget > 0 {
		fmt.Fprintf(out, "budget: %d trials (%d blocks)\n", maxBlocks*reskit.StreamBlockTrials, maxBlocks)
	}
	if plan.Active() {
		fmt.Fprintf(out, "faults: %v\n", plan)
	}
	fmt.Fprintln(out)

	spec := reskit.EngineStreamSpec{
		Source:      cs.Source(),
		Sink:        cs,
		Seed:        cf.Seed,
		Fingerprint: ck.fingerprint,
		Workers:     workers,
		MaxJobs:     maxBlocks,
		Checkpoint:  reskit.EngineCheckpoint{Path: ck.path, Interval: ck.interval, Resume: ck.resume},
		Failure:     ck.failure,
		Log:         out,
	}
	if ob != nil {
		spec.Reg = ob.reg
	}
	start := time.Now()
	sres, runErr := reskit.RunEngineStream(ctx, spec)
	elapsed := time.Since(start)
	if err := hardStreamFailure(ctx, runErr, sres); err != nil {
		return err
	}

	agg := cs.Aggregate()
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "trials\t%d (%d blocks", agg.Trials, sres.Committed)
	if sres.Restored > 0 {
		fmt.Fprintf(tw, ", %d restored", sres.Restored)
	}
	fmt.Fprintf(tw, ")\n")
	fmt.Fprintf(tw, "stopped\t%s\n", streamStopReason(ctx, sres))
	if stop.Active() {
		fmt.Fprintf(tw, "mean %s\t%.6g ± %.3g\n", cs.Target(), cs.TargetSummary().Mean(), cs.HalfWidth())
	}
	campaign.MeanRows(tw, agg, plan.Active())
	fmt.Fprintf(tw, "util p50/p90/p99\t%.4g / %.4g / %.4g\n",
		cs.UtilizationQuantile(0.5), cs.UtilizationQuantile(0.9), cs.UtilizationQuantile(0.99))
	fmt.Fprintf(tw, "completion rate\t%.4g\n", agg.CompletionRate)
	fmt.Fprintf(tw, "wall time\t%v (%.0f trials/s)\n",
		elapsed.Round(time.Millisecond), float64(sres.Fresh()*reskit.StreamBlockTrials)/elapsed.Seconds())
	if err := tw.Flush(); err != nil {
		return err
	}
	return campaign.Report{Ctx: ctx, Out: out, Path: ck.path}.FinishStream(runErr, sres)
}

// hardStreamFailure is campaign.HardFailure for streaming runs:
// interruptions fall through to the partial report, and so does a run
// that reached a natural end (stop rule fired, budget exhausted) but
// could not persist its final snapshot — the results printed are
// complete. Everything else aborts before numbers print.
func hardStreamFailure(ctx context.Context, runErr error, sres *reskit.EngineStreamResult) error {
	if runErr == nil || ctx.Err() != nil {
		return nil
	}
	var serr *reskit.EngineSnapshotError
	if errors.As(runErr, &serr) && (sres.Stopped || sres.Exhausted) {
		return nil
	}
	return runErr
}
