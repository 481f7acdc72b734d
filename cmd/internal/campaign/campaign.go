// Package campaign is the front end of a campaign run, shared by
// cmd/simulate and cmd/distrun: the campaign flags, the fault plan they
// spell, the CampaignConfig and engine job grid built from them, the run
// fingerprint that ties a snapshot to them, the result table, and the
// end-of-run report with its exit codes. Both commands go through it, so
// job i means the same work in either one, and a snapshot either one
// writes resumes on the other.
package campaign

import (
	"errors"
	"flag"
	"fmt"

	"reskit"
	"reskit/internal/lawspec"
	"reskit/internal/sim"
	"reskit/internal/stats"
)

// Flags holds the campaign flags. Register binds all but CkptFail, the
// -ckptfail shorthand only cmd/simulate offers.
type Flags struct {
	R, Recovery, TotalWork float64
	Task, TaskDisc, Ckpt   string // law specs (internal/lawspec)
	Faults                 string // fault plan spec (reskit.ParseFaults)
	MTBF, CkptFail         float64
	FaultSweep             string // comma-separated MTBF grid
	Trials                 int
	Seed                   uint64
}

// Register binds the campaign flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.Float64Var(&f.R, "R", 0, "reservation length (required)")
	fs.StringVar(&f.Ckpt, "ckpt", "", "checkpoint-duration law (required)")
	fs.StringVar(&f.Task, "task", "", "continuous task law")
	fs.StringVar(&f.TaskDisc, "taskdisc", "", "discrete task law")
	fs.Float64Var(&f.Recovery, "recovery", 0, "recovery time at reservation start")
	fs.Float64Var(&f.TotalWork, "totalwork", 500, "total application work of a campaign")
	fs.IntVar(&f.Trials, "trials", 100000, "Monte-Carlo trials")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed")
	fs.StringVar(&f.Faults, "faults", "", "fault plan, e.g. 'crash=exp:0.02,ckptfail=0.05,revoke=uniform:0.1'")
	fs.Float64Var(&f.MTBF, "mtbf", 0, "shorthand for -faults 'crash=exp:1/MTBF' (exponential fail-stop crashes)")
	fs.StringVar(&f.FaultSweep, "faultsweep", "", "comma-separated MTBF grid; reruns the campaign at each MTBF and prints the lost-work/completion trade-off")
}

// Parse checks -R and -ckpt and parses the checkpoint law and the fault
// plan of -faults, -mtbf and -ckptfail; the plan is nil when no fault
// flag is set.
func (f *Flags) Parse() (reskit.Continuous, *reskit.FaultPlan, error) {
	if f.R <= 0 {
		return nil, nil, errors.New("-R must be positive")
	}
	if f.Ckpt == "" {
		return nil, nil, errors.New("-ckpt is required")
	}
	ckpt, err := lawspec.Parse(f.Ckpt)
	if err != nil {
		return nil, nil, err
	}
	plan, err := reskit.ParseFaults(f.Faults)
	if err != nil {
		return nil, nil, err
	}
	if f.MTBF != 0 {
		if !(f.MTBF > 0) {
			return nil, nil, errors.New("-mtbf must be positive")
		}
		crash, err := reskit.CrashExponential(1 / f.MTBF)
		if err != nil {
			return nil, nil, err
		}
		if plan == nil {
			plan = &reskit.FaultPlan{}
		}
		plan.Crash = crash
	}
	if f.CkptFail != 0 {
		model, err := reskit.CkptFailBernoulli(f.CkptFail)
		if err != nil {
			return nil, nil, err
		}
		if plan == nil {
			plan = &reskit.FaultPlan{}
		}
		plan.Ckpt = model
	}
	return ckpt, plan, nil
}

// Config builds the campaign: the task law, the dynamic strategy of the
// task and checkpoint laws, the fault plan, validated. instrument, when
// set, wires observability into the reservation config once the strategy
// is in place; it must leave every decision as it is. desc renders the
// laws for a banner.
func (f *Flags) Config(ckpt reskit.Continuous, plan *reskit.FaultPlan,
	instrument func(*reskit.SimConfig)) (cfg reskit.CampaignConfig, desc string, err error) {

	if !(f.TotalWork > 0) {
		return cfg, "", errors.New("-totalwork must be positive")
	}
	base := reskit.SimConfig{R: f.R, Recovery: f.Recovery, Ckpt: ckpt, Faults: plan}
	switch {
	case f.Task != "":
		law, err := lawspec.Parse(f.Task)
		if err != nil {
			return cfg, "", err
		}
		dyn, err := reskit.TryNewDynamic(f.R, law, ckpt)
		if err != nil {
			return cfg, "", err
		}
		base.Task = law
		base.Strategy = reskit.DynamicStrategy(dyn)
		desc = fmt.Sprintf("X ~ %v, C ~ %v", law, ckpt)
	case f.TaskDisc != "":
		law, err := lawspec.ParseDiscrete(f.TaskDisc)
		if err != nil {
			return cfg, "", err
		}
		dyn, err := reskit.TryNewDynamicDiscrete(f.R, law, ckpt)
		if err != nil {
			return cfg, "", err
		}
		base.TaskDisc = law
		base.Strategy = reskit.DynamicStrategy(dyn)
		desc = fmt.Sprintf("X ~ %v (discrete), C ~ %v", law, ckpt)
	default:
		return cfg, "", errors.New("-task or -taskdisc is required with a campaign")
	}
	if instrument != nil {
		instrument(&base)
	}
	cfg = reskit.CampaignConfig{Reservation: base, TotalWork: f.TotalWork}
	if err := cfg.Validate(); err != nil {
		return cfg, "", err
	}
	return cfg, desc, nil
}

// Grid lays cfg out as engine jobs: one row for a plain campaign, one per
// MTBF of -faultsweep.
func (f *Flags) Grid(cfg reskit.CampaignConfig) (*sim.Grid, error) {
	if f.FaultSweep == "" {
		return sim.CampaignGrid(cfg, f.Trials), nil
	}
	grid, err := sim.FaultSweepGrid(cfg, f.FaultSweep, f.Trials)
	if err != nil {
		return nil, fmt.Errorf("-faultsweep: %w", err)
	}
	return grid, nil
}

// Fingerprint identifies the run of a campaign grid: it ties a snapshot
// to the flags that shape its payloads, and a distrun worker to its
// coordinator. Neither the worker count nor the failure policy is part of
// it: resuming under either is legal and still bit-identical.
func (f *Flags) Fingerprint(plan *reskit.FaultPlan) uint64 {
	mode := "campaign"
	if f.FaultSweep != "" {
		mode = "campaign faultsweep=" + f.FaultSweep
	}
	return f.fingerprint(mode, plan, fmt.Sprintf("trials=%d", f.Trials))
}

// StreamFingerprint identifies the run of a campaign stream. It carries
// the stop rule and its target, which decide where the run ends, but not
// the trial budget: resuming under another budget is as legal as
// resuming under another worker count.
func (f *Flags) StreamFingerprint(plan *reskit.FaultPlan, stop stats.StopSpec, target string) uint64 {
	return f.fingerprint("campaign stream target="+target+" stop="+stop.String(), plan)
}

// fingerprint hashes the facets every campaign mode shares, with extra
// ones before the seed.
func (f *Flags) fingerprint(mode string, plan *reskit.FaultPlan, extra ...string) uint64 {
	parts := []string{
		mode,
		fmt.Sprintf("R=%g", f.R),
		fmt.Sprintf("recovery=%g", f.Recovery),
		"task=" + f.Task,
		"taskdisc=" + f.TaskDisc,
		"ckpt=" + f.Ckpt,
		fmt.Sprintf("totalwork=%g", f.TotalWork),
		fmt.Sprintf("faults=%v", plan),
	}
	parts = append(parts, extra...)
	parts = append(parts, fmt.Sprintf("seed=%d", f.Seed))
	return reskit.ConfigFingerprint(parts...)
}
