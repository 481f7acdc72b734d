// Command planres chooses the reservation length to request: it sweeps
// candidate lengths, runs deterministic Monte-Carlo campaigns of the
// whole application under the paper's dynamic strategy, and prints the
// cost/efficiency frontier.
//
//	planres -work 500 -task 'norm:3,0.5@[0,inf]' -ckpt 'norm:5,0.4@[0,inf]' \
//	        -recovery 1.5 -candidates 15,30,60,120 -wait 20
//
// The -wait flag models the scheduling cost of obtaining each
// reservation (longer reservations are harder to get; price them
// accordingly); -payperuse switches billing to machine time actually
// used (Section 4.4's charging model).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"reskit"
	"reskit/internal/atomicio"
	"reskit/internal/lawspec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "planres:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("planres", flag.ContinueOnError)
	work := fs.Float64("work", 0, "total work to commit (required)")
	taskSpec := fs.String("task", "", "task-duration law (required)")
	ckptSpec := fs.String("ckpt", "", "checkpoint-duration law (required)")
	recovery := fs.Float64("recovery", 0, "recovery time per reservation after the first")
	wait := fs.Float64("wait", 0, "fixed cost per reservation (queue wait)")
	payPerUse := fs.Bool("payperuse", false, "bill time used instead of time reserved")
	candidatesStr := fs.String("candidates", "", "comma-separated reservation lengths (default: sweep)")
	trials := fs.Int("trials", 200, "Monte-Carlo campaigns per candidate")
	seed := fs.Uint64("seed", 1, "random seed (every value, including 0, is a distinct seed)")
	workers := fs.Int("workers", 0, "parallel workers (0: all CPUs; plan identical for any count)")
	progress := fs.Bool("progress", false, "print live sweep progress to stderr")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot (engine.* and planner.*) to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *work <= 0 {
		return errors.New("-work must be positive")
	}
	if *taskSpec == "" || *ckptSpec == "" {
		return errors.New("-task and -ckpt are required")
	}
	task, err := lawspec.Parse(*taskSpec)
	if err != nil {
		return err
	}
	ckpt, err := lawspec.Parse(*ckptSpec)
	if err != nil {
		return err
	}
	var candidates []float64
	if *candidatesStr != "" {
		for _, s := range strings.Split(*candidatesStr, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad candidate %q: %w", s, err)
			}
			candidates = append(candidates, v)
		}
	}

	cfg := reskit.PlannerConfig{
		TotalWork:  *work,
		Task:       task,
		Ckpt:       ckpt,
		Recovery:   *recovery,
		Cost:       reskit.PlannerCostModel{PerReservation: *wait, PayPerUse: *payPerUse},
		Candidates: candidates,
		Trials:     *trials,
		Seed:       *seed,
		Workers:    *workers,
	}
	if *metricsPath != "" {
		cfg.Reg = reskit.NewObsRegistry()
	}
	if *progress {
		// With the default sweep the candidate count is chosen inside
		// the planner; total 0 renders counts without percentage/ETA.
		total := int64(len(candidates) * *trials)
		cfg.Progress = reskit.NewProgress(os.Stderr, "trials", total, time.Second)
		cfg.Progress.Start(context.Background())
	}
	opts, err := reskit.PlanReservationLength(cfg)
	cfg.Progress.Stop()
	if *metricsPath != "" {
		var buf bytes.Buffer
		merr := cfg.Reg.WriteJSON(&buf)
		if merr == nil {
			merr = atomicio.WriteFile(*metricsPath, buf.Bytes(), 0o644)
		}
		if merr != nil && err == nil {
			err = fmt.Errorf("-metrics: %w", merr)
		}
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "plan: %g units of work, X ~ %v, C ~ %v, recovery %g, wait %g/reservation\n\n",
		*work, task, ckpt, *recovery, *wait)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "R\tcost\treservations\tutilization\twork/cost\tcompleted\n")
	for _, o := range opts {
		fmt.Fprintf(tw, "%.4g\t%.5g\t%.4g\t%.1f%%\t%.5g\t%v\n",
			o.R, o.Cost, o.Reservations, 100*o.Utilization, o.WorkPerCost, o.Completed)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrecommended: R = %.4g\n", opts[0].R)
	return nil
}
