package main

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"reskit"
	"reskit/cmd/internal/campaign"
	"reskit/internal/engine"
	"reskit/internal/rng"
	"reskit/internal/sim"
)

// runPreempt validates the analytical E(W(X)) of the preemptible
// scenario against simulation: the optimal lead time, the pessimistic
// bound, and the clairvoyant oracle. The three policies run as one
// engine job grid — block b of every policy on rng substream b — so the
// validation is resumable with -checkpoint/-resume and each row matches
// a standalone run of that policy to the bit.
func runPreempt(ctx context.Context, out io.Writer, r float64, ckpt reskit.Continuous,
	trials int, seed uint64, workers int, ckOpts ckptOpts, ob *simObs) error {

	p, err := reskit.TryNewPreemptible(r, ckpt)
	if err != nil {
		return err
	}
	sol := p.OptimalX()
	pess := p.Pessimistic()
	fmt.Fprintf(out, "preemptible: R=%g, C ~ %v, %d trials\n\n", r, ckpt, trials)

	policies := []struct {
		name   string
		x      float64
		want   float64
		oracle bool
	}{
		{"optimal", sol.X, sol.ExpectedWork, false},
		{"pessimistic", pess.X, pess.ExpectedWork, false},
		{"oracle", 0, r - ckpt.Mean(), true},
	}

	numBlocks := sim.NumMonteCarloBlocks(trials)
	jobs := make([]engine.Job, 0, len(policies)*numBlocks)
	for pi := range policies {
		for b := 0; b < numBlocks; b++ {
			pi, b := pi, b
			jobs = append(jobs, engine.Job{
				Name:   fmt.Sprintf("%s/block%d", policies[pi].name, b),
				Stream: uint64(b),
				Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
					data, err := sim.PreemptibleBlockPayload(ctx, p, policies[pi].x, policies[pi].oracle, trials, b, src)
					return engine.JobResult{Payload: data}, err
				},
			})
		}
	}

	check := func(_ int, data []byte) error { return sim.CheckPreemptiblePayload(data) }
	res, runErr := engine.Run(ctx, ckOpts.spec(jobs, seed, workers, out, ob, check))
	if err := campaign.HardFailure(ctx, runErr, res); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "policy\tX\tanalytic E(W)\tsimulated E(W)\t±95%%\tsuccess\n")
	for pi, pol := range policies {
		agg, err := sim.MergePreemptiblePayloads(res.Payloads[pi*numBlocks : (pi+1)*numBlocks])
		if err != nil {
			return err
		}
		if int(agg.Trials) < trials {
			fmt.Fprintf(tw, "%s\t(%s after %d/%d trials)\n", pol.name, campaign.StopMarker(ctx), agg.Trials, trials)
			break
		}
		if pol.oracle {
			fmt.Fprintf(tw, "oracle\t-\t%.5g\t%.5g\t%.2g\t%.3f\n",
				pol.want, agg.Work.Mean(), agg.Work.CI95(), agg.SuccessRate())
		} else {
			fmt.Fprintf(tw, "%s\t%.4g\t%.5g\t%.5g\t%.2g\t%.3f\n",
				pol.name, pol.x, pol.want, agg.Work.Mean(), agg.Work.CI95(), agg.SuccessRate())
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return campaign.Report{Ctx: ctx, Out: out, Path: ckOpts.path}.Finish(runErr, res)
}
