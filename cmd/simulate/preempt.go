package main

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"reskit"
	"reskit/cmd/internal/campaign"
	"reskit/internal/engine"
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

	rows := make([]sim.PreemptibleRow, len(policies))
	for pi, pol := range policies {
		rows[pi] = sim.PreemptibleRow{Name: pol.name, P: p, X: pol.x, Oracle: pol.oracle}
	}
	grid := sim.PreemptibleGrid(trials, rows...)
	res, runErr := engine.Run(ctx, ckOpts.spec(grid, seed, workers, out, ob))
	if err := campaign.HardFailure(ctx, runErr, res); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "policy\tX\tanalytic E(W)\tsimulated E(W)\t±95%%\tsuccess\n")
	for pi, pol := range policies {
		agg, err := sim.MergePreemptiblePayloads(grid.Row(res.Payloads, pi))
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
