package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"reskit"
	"reskit/cmd/internal/campaign"
	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/engine"
	"reskit/internal/fault"
	"reskit/internal/lawspec"
	"reskit/internal/sim"
)

// pointMassNote is the note row of a strategy that needs the dynamic
// rule under a point-mass task law.
const pointMassNote = "(point-mass task law)"

// stratSpec is one resolved strategy of the comparison: either a
// runnable configuration (cfg, oracle) or a table note explaining why
// the strategy cannot run under the current flags.
type stratSpec struct {
	name   string
	note   string // non-empty: print the note row, schedule no jobs
	cfg    reskit.SimConfig
	oracle bool
}

// workflowFingerprint ties a workflow snapshot to the facets that shape
// its payloads: the laws, the strategy list, the fault plan, the trial
// count and the seed.
func workflowFingerprint(cf *campaign.Flags, strategies string, plan *reskit.FaultPlan) uint64 {
	return reskit.ConfigFingerprint(
		"workflow",
		fmt.Sprintf("R=%g", cf.R),
		fmt.Sprintf("recovery=%g", cf.Recovery),
		// The crash rate of the retired -failrate flag, always 0 now
		// (crashes are part of the fault plan); kept so snapshots of
		// runs without it still resume.
		"failrate=0",
		"task="+cf.Task,
		"taskdisc="+cf.TaskDisc,
		"ckpt="+cf.Ckpt,
		"strategies="+strategies,
		fmt.Sprintf("faults=%v", plan),
		fmt.Sprintf("trials=%d", cf.Trials),
		fmt.Sprintf("seed=%d", cf.Seed),
	)
}

// runWorkflow compares checkpoint strategies on the workflow
// reservation (the paper's Figure 8/10 setting). Every strategy's
// Monte-Carlo runs as blocks of one shared engine grid, so the whole
// comparison is resumable with -checkpoint/-resume and the printed
// table is bit-identical for any worker count. Block b of every
// strategy draws rng substream b — exactly what a standalone run of
// that strategy would draw — so each row matches the single-strategy
// result to the bit.
func runWorkflow(ctx context.Context, out io.Writer, r, recovery float64, taskSpec, taskDiscSpec string, ckpt reskit.Continuous,
	trials int, seed uint64, workers int, strategyList string, hist bool, plan *reskit.FaultPlan, ckOpts ckptOpts, ob *simObs) error {

	base := reskit.SimConfig{R: r, Recovery: recovery, Ckpt: ckpt, Faults: plan}
	ob.attach(&base)
	if plan.Active() {
		fmt.Fprintf(out, "faults: %v\n", plan)
	}
	var taskMeanLaw interface {
		Mean() float64
		Quantile(float64) float64
	}
	var static *reskit.Static
	var dynamic *reskit.Dynamic
	switch {
	case taskSpec != "":
		law, err := lawspec.Parse(taskSpec)
		if err != nil {
			return err
		}
		base.Task = law
		taskMeanLaw = law
		// A point-mass task law has no density for the dynamic rule to
		// integrate: its dynamic and threshold rows become notes.
		if dynamic, err = reskit.TryNewDynamic(r, law, ckpt); err != nil && !errors.Is(err, core.ErrPointMassTask) {
			return err
		}
		if s, ok := law.(reskit.Summable); ok {
			static, err = reskit.TryNewStatic(r, s, ckpt)
		} else {
			// Truncated laws are not Summable; approximate the static
			// problem with a Normal matching the first two moments.
			static, err = reskit.TryNewStatic(r, reskit.Normal(law.Mean(), math.Sqrt(law.Variance())), ckpt)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "workflow: R=%g, X ~ %v, C ~ %v, %d trials\n\n", r, law, ckpt, trials)
	case taskDiscSpec != "":
		law, err := lawspec.ParseDiscrete(taskDiscSpec)
		if err != nil {
			return err
		}
		base.TaskDisc = law
		if dynamic, err = reskit.TryNewDynamicDiscrete(r, law, ckpt); err != nil {
			return err
		}
		if s, ok := law.(reskit.SummableDiscrete); ok {
			if static, err = reskit.TryNewStaticDiscrete(r, s, ckpt); err != nil {
				return err
			}
		} else {
			return fmt.Errorf("discrete law %v does not support the static strategy", law)
		}
		taskMeanLaw = poissonQuantiler{law}
		fmt.Fprintf(out, "workflow: R=%g, X ~ %v (discrete), C ~ %v, %d trials\n\n", r, law, ckpt, trials)
	default:
		return errors.New("-task or -taskdisc is required (or use -preempt)")
	}

	sol := static.Optimize()
	var wInt float64
	var wErr error
	if dynamic != nil {
		wInt, wErr = dynamic.Intersection()
	}

	// Resolve every requested strategy before any simulation runs, so
	// an unknown name surfaces as an error up front, not mid-table. A
	// strategy this instance cannot run (the pessimistic bound of a
	// zero-length checkpoint, say) becomes a note row. Each runnable
	// strategy is one grid row, in table order.
	var specs []stratSpec
	var rows []sim.ReservationRow
	for _, name := range strings.Split(strategyList, ",") {
		name = strings.TrimSpace(name)
		s := stratSpec{name: name, cfg: base}
		switch name {
		case "oracle":
			s.cfg.Strategy = reskit.NeverStrategy()
			s.oracle = true
		case "dynamic":
			if dynamic == nil {
				s.note = pointMassNote
				break
			}
			s.cfg.Strategy = ob.counted(reskit.DynamicStrategy(dynamic))
		case "static":
			s.cfg.Strategy = ob.counted(reskit.StaticStrategy(sol.NOpt))
		case "threshold":
			if dynamic == nil {
				s.note = pointMassNote
				break
			}
			if wErr != nil {
				s.note = "(no intersection)"
				break
			}
			s.cfg.Strategy = ob.counted(reskit.ThresholdStrategy(wInt))
		case "pessimistic":
			pess, perr := reskit.TryPessimisticStrategy(
				taskMeanLaw.Quantile(0.9999), ckpt.Quantile(0.9999))
			if perr != nil {
				s.note = "(needs finite positive bounds)"
				break
			}
			s.cfg.Strategy = ob.counted(pess)
		case "never":
			s.cfg.Strategy = ob.counted(reskit.NeverStrategy())
		case "youngdaly":
			// The Young/Daly period needs the MTBF of a memoryless crash
			// process: -mtbf, or crash=exp in -faults.
			var crash fault.ExpArrival
			if plan != nil {
				crash, _ = plan.Crash.(fault.ExpArrival)
			}
			if crash.Rate <= 0 {
				s.note = "(needs exponential crashes: -mtbf)"
				break
			}
			s.cfg.Strategy = ob.counted(reskit.YoungDalyStrategy(1/crash.Rate, ckpt.Mean()))
			s.cfg.After = reskit.ContinueExecution
		default:
			return fmt.Errorf("unknown strategy %q", name)
		}
		if s.note == "" {
			// The grid panics on an invalid config; flags report it.
			if err := s.cfg.Validate(); err != nil {
				return err
			}
			rows = append(rows, sim.ReservationRow{Name: s.name, Cfg: s.cfg, Oracle: s.oracle})
		}
		specs = append(specs, s)
	}
	grid := sim.ReservationGrid(trials, rows...)
	res, runErr := engine.Run(ctx, ckOpts.spec(grid, seed, workers, out, ob))
	if err := campaign.HardFailure(ctx, runErr, res); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	faulty := plan.Active()
	if faulty {
		fmt.Fprintf(tw, "strategy\tE(saved)\t±95%%\tE(tasks)\tE(ckpts)\tE(ckptfaults)\tE(crashes)\trevoked\tzero-runs\n")
	} else {
		fmt.Fprintf(tw, "strategy\tE(saved)\t±95%%\tE(tasks)\tE(ckpts)\tzero-runs\n")
	}
	ri := 0
	for _, s := range specs {
		if s.note != "" {
			fmt.Fprintf(tw, "%s\t%s\n", s.name, s.note)
			continue
		}
		agg, err := sim.MergeMonteCarloPayloads(grid.Row(res.Payloads, ri))
		if err != nil {
			return err
		}
		ri++
		if agg.Trials > 0 {
			zeroPct := 100 * float64(agg.ZeroRuns) / float64(agg.Trials)
			if faulty {
				fmt.Fprintf(tw, "%s\t%.5g\t%.2g\t%.4g\t%.3g\t%.3g\t%.3g\t%.2f%%\t%.2f%%\n",
					s.name, agg.Saved.Mean(), agg.Saved.CI95(), agg.Tasks.Mean(), agg.Checkpoints.Mean(),
					agg.CkptFaults.Mean(), agg.Failures.Mean(),
					100*float64(agg.RevokedRuns)/float64(agg.Trials), zeroPct)
			} else {
				fmt.Fprintf(tw, "%s\t%.5g\t%.2g\t%.4g\t%.3g\t%.2f%%\n",
					s.name, agg.Saved.Mean(), agg.Saved.CI95(), agg.Tasks.Mean(), agg.Checkpoints.Mean(), zeroPct)
			}
		}
		if int(agg.Trials) < trials {
			fmt.Fprintf(tw, "%s\t(%s after %d/%d trials)\n", s.name, campaign.StopMarker(ctx), agg.Trials, trials)
			break
		}
		if hist {
			if err := printHistogram(tw, s.cfg, s.oracle, trials, seed, r); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if runErr != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(out, "\n%s (%v); remaining strategies skipped\n", campaign.StopMarker(ctx), runErr)
		}
		return campaign.Report{Ctx: ctx, Out: out, Path: ckOpts.path}.Finish(runErr, res)
	}
	fmt.Fprintf(out, "\nstatic n_opt = %d (E = %.5g analytic)\n", sol.NOpt, sol.ENOpt)
	if dynamic != nil && wErr == nil {
		fmt.Fprintf(out, "dynamic W_int = %.5g\n", wInt)
	}
	return nil
}

// printHistogram re-runs a small sample of reservations of cfg — under
// the clairvoyant scheduler when oracle is set — and renders the
// saved-work distribution over ten equal bins of [0, rMax] as a
// 40-column ASCII bar chart.
func printHistogram(out io.Writer, cfg reskit.SimConfig, oracle bool, trials int, seed uint64, rMax float64) error {
	n := trials
	if n > 5000 {
		n = 5000
	}
	simulate := reskit.Simulate
	if oracle {
		simulate = sim.RunOracle
	}
	var counts [10]int64
	src := reskit.NewRNGStream(seed, 999)
	for i := 0; i < n; i++ {
		// Saved work lies in [0, R]; a run that saves all of R lands in
		// the last bin.
		b := int(float64(len(counts)) * simulate(cfg, src).Saved / rMax)
		if b >= len(counts) {
			b = len(counts) - 1
		}
		counts[b]++
	}
	peak := int64(1)
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	w := rMax / float64(len(counts))
	for i, c := range counts {
		bar := strings.Repeat("#", int(40*c/peak))
		fmt.Fprintf(out, "  [%5.1f-%5.1f)\t%s %d\n", float64(i)*w, float64(i+1)*w, bar, c)
	}
	return nil
}

// poissonQuantiler adapts a discrete law to the Quantile interface used
// for the pessimistic bound.
type poissonQuantiler struct{ d reskit.Discrete }

func (p poissonQuantiler) Mean() float64 { return p.d.Mean() }

func (p poissonQuantiler) Quantile(q float64) float64 {
	return float64(dist.DiscreteQuantile(p.d, q))
}
