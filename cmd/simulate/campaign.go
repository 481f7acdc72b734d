package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"reskit"
	"reskit/cmd/internal/campaign"
	"reskit/internal/engine"
)

// ckptOpts carries the durable-run flags into the mode functions: where
// to snapshot, how often, whether to restore first, the configuration
// fingerprint guarding against resuming under a different setup, and
// the failure policy (retries, deadlines, keep-going). The policy is
// deliberately outside the fingerprint: retrying or resuming under a
// different policy is legal and still bit-identical.
type ckptOpts struct {
	path        string
	interval    time.Duration
	resume      bool
	fingerprint uint64
	failure     engine.Failure
}

// spec assembles the engine spec every mode shares: the job grid, the
// reproducibility contract, the durable-run layer from the CLI flags,
// and the observability wiring. Engine per-job progress stays nil here —
// the simulator observer already ticks per trial, and double-counting
// the same run would corrupt the ETA.
func (c ckptOpts) spec(jobs []engine.Job, seed uint64, workers int, out io.Writer, ob *simObs, check func(int, []byte) error) engine.Spec {
	sp := engine.Spec{
		Jobs:        jobs,
		Seed:        seed,
		Fingerprint: c.fingerprint,
		Workers:     workers,
		Checkpoint:  engine.Checkpoint{Path: c.path, Interval: c.interval, Resume: c.resume},
		Failure:     c.failure,
		Check:       check,
		Log:         out,
	}
	if ob != nil {
		sp.Reg = ob.reg
	}
	return sp
}

// runCampaignGrid simulates the paper's multi-reservation campaign
// setting (Sections 1-2): the application needs -totalwork units of
// committed work and runs reservation after reservation under the
// dynamic checkpoint strategy, with recovery from the second reservation
// on. With -faultsweep it reruns the campaign over a grid of MTBF values
// (keeping any other configured fault model) and prints the trade-off:
// more frequent crashes mean more lost work, lower utilization, and
// eventually campaigns that cannot finish within the reservation cap.
// Either way the run is one engine grid with a deterministic merge, the
// grid cmd/distrun leases out, so the printed results are bit-identical
// for any worker count, across -checkpoint/-resume, and on a fleet.
func runCampaignGrid(ctx context.Context, out io.Writer, cf *campaign.Flags, ckpt reskit.Continuous,
	plan *reskit.FaultPlan, workers int, ck ckptOpts, ob *simObs) error {

	cfg, desc, err := cf.Config(ckpt, plan, ob.instrument)
	if err != nil {
		return err
	}
	grid, err := cf.Grid(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign: R=%g, %s, total work %g, %d trials\n\n", cf.R, desc, cf.TotalWork, cf.Trials)
	if grid.MTBFs == nil && plan.Active() {
		fmt.Fprintf(out, "faults: %v\n\n", plan)
	}

	start := time.Now()
	res, runErr := engine.Run(ctx, ck.spec(grid.Jobs(), cf.Seed, workers, out, ob, grid.Check))
	elapsed := time.Since(start)
	if err := campaign.HardFailure(ctx, runErr, res); err != nil {
		return err
	}
	rep := campaign.Report{Ctx: ctx, Out: out, Path: ck.path}
	if err := rep.Table(grid, res.Payloads, runErr, elapsed); err != nil {
		return err
	}
	return rep.Finish(runErr, res)
}
