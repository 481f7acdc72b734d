// Command bench is the production-scale benchmark suite behind
// BENCH_suite.json: it runs every simulate mode (preemptible
// reservation, strategy-driven workflow, multi-reservation campaign)
// under normal- and gamma-law workloads, sweeps worker counts, times
// each cell with min-of-N repetitions (internal/benchkit), checks that
// aggregates are bit-identical across the worker sweep, and writes a
// versioned snapshot.
//
//	go run ./cmd/bench -out BENCH_suite.json            # refresh snapshot
//	go run ./cmd/bench -check -scale 0.01               # regression gate
//
// The -check mode re-runs the suite (typically scaled down) and diffs
// it against the committed snapshot with benchkit.Compare: ns/trial
// drift beyond BENCH_DRIFT_PCT, any new steady-state allocation, or a
// lost bit-identity flag exits non-zero. `make benchcheck` and the CI
// benchcheck job are thin wrappers around this mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"reskit"
	"reskit/internal/benchkit"
)

// workload is one named benchmark: a closure over a fixed configuration
// that runs `trials` trials on `workers` workers and returns the
// aggregate. Aggregates are plain comparable structs, so the cross-
// worker bit-identity check is a == over the boxed values.
type workload struct {
	name   string
	trials int64 // production trial count, scaled by -scale
	run    func(trials int64, workers int) any
}

// suiteSeed fixes the rng seed of every workload: the suite measures
// speed, and determinism means the bit-identity column is about worker
// sharding, not run-to-run luck.
const suiteSeed = 42

// buildWorkloads constructs the suite. Laws mirror the repository's
// canonical experiment configurations (the campaign examples of the
// README, figure reproductions): reservation R=29 with a truncated-normal task
// (mu=3, sigma=0.5) or gamma task (k=6, theta=0.5), truncated-normal
// checkpoint law (mu=5, sigma=0.4), recovery 1.5, dynamic strategy.
func buildWorkloads() ([]workload, error) {
	normTask := reskit.Truncate(reskit.Normal(3, 0.5), 0, math.Inf(1))
	gammaTask := reskit.Truncate(reskit.Gamma(6, 0.5), 0, math.Inf(1))
	ckpt := reskit.Truncate(reskit.Normal(5, 0.4), 0, math.Inf(1))

	dynNorm, err := reskit.TryNewDynamic(29, normTask, ckpt)
	if err != nil {
		return nil, fmt.Errorf("norm dynamic strategy: %w", err)
	}
	dynGamma, err := reskit.TryNewDynamic(29, gammaTask, ckpt)
	if err != nil {
		return nil, fmt.Errorf("gamma dynamic strategy: %w", err)
	}

	wfCfg := func(task reskit.Continuous, dyn *reskit.Dynamic) reskit.SimConfig {
		return reskit.SimConfig{
			R:        29,
			Recovery: 1.5,
			Task:     task,
			Ckpt:     ckpt,
			Strategy: reskit.DynamicStrategy(dyn),
		}
	}
	campCfg := func(task reskit.Continuous, dyn *reskit.Dynamic) reskit.CampaignConfig {
		return reskit.CampaignConfig{
			Reservation: wfCfg(task, dyn),
			TotalWork:   100,
		}
	}

	preemptLaw := reskit.Truncate(reskit.Normal(300, 30), 60, 600)
	preempt := reskit.NewPreemptible(3600, preemptLaw)

	normWF, gammaWF := wfCfg(normTask, dynNorm), wfCfg(gammaTask, dynGamma)
	normCamp, gammaCamp := campCfg(normTask, dynNorm), campCfg(gammaTask, dynGamma)

	return []workload{
		{
			name:   "preempt",
			trials: 10_000_000,
			run: func(trials int64, workers int) any {
				return reskit.MonteCarloPreemptible(preempt, 360, int(trials), suiteSeed, workers)
			},
		},
		{
			name:   "workflow/dynamic-norm",
			trials: 1_000_000,
			run: func(trials int64, workers int) any {
				return reskit.MonteCarlo(normWF, int(trials), suiteSeed, workers)
			},
		},
		{
			name:   "workflow/dynamic-gamma",
			trials: 1_000_000,
			run: func(trials int64, workers int) any {
				return reskit.MonteCarlo(gammaWF, int(trials), suiteSeed, workers)
			},
		},
		{
			name:   "campaign/norm",
			trials: 1_000_000,
			run: func(trials int64, workers int) any {
				return reskit.MonteCarloCampaign(normCamp, int(trials), suiteSeed, workers)
			},
		},
		{
			name:   "campaign/gamma",
			trials: 200_000,
			run: func(trials int64, workers int) any {
				return reskit.MonteCarloCampaign(gammaCamp, int(trials), suiteSeed, workers)
			},
		},
	}, nil
}

// scaledTrials applies the -scale factor with a floor of one full
// Monte-Carlo block so tiny CI scales still exercise the block path.
func scaledTrials(base int64, scale float64) int64 {
	t := int64(float64(base) * scale)
	if t < 64 {
		t = 64
	}
	return t
}

// parseWorkers parses the -workers comma list.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w, err := strconv.Atoi(f)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q (want positive integers, e.g. 1,4,8)", f)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -workers list")
	}
	return out, nil
}

// runSuite measures every workload at every worker count and returns
// the populated snapshot. Progress goes to stderr so -out can be "-"
// in the future without interleaving.
func runSuite(wls []workload, workers []int, reps int, scale float64, stderr io.Writer) *benchkit.Snapshot {
	snap := benchkit.NewSnapshot()
	for _, wl := range wls {
		trials := scaledTrials(wl.trials, scale)
		// Warm up outside the timed region: builds the dynamic
		// strategy's coefficient table and fills the scratch pools, so
		// every repetition measures steady state.
		wl.run(min64(trials, 4096), 1)

		rows := make([]benchkit.Result, 0, len(workers))
		aggs := make([]any, 0, len(workers))
		var ns1 float64
		for i, w := range workers {
			var agg any
			tm := benchkit.MinOf(reps, trials, func() {
				agg = wl.run(trials, w)
			})
			row := tm.Result(wl.name, w)
			if i == 0 {
				ns1 = tm.NsPerTrial
			} else {
				row.SpeedupVs1Worker = benchkit.Speedup(ns1, tm.NsPerTrial, w)
			}
			rows = append(rows, row)
			aggs = append(aggs, agg)
			fmt.Fprintf(stderr, "%-28s w=%d  %10.1f ns/trial  %12.0f trials/s  %.3g allocs/trial\n",
				wl.name, w, tm.NsPerTrial, tm.TrialsPerSec, tm.AllocsPerTrial)
		}
		identical := true
		for _, a := range aggs[1:] {
			if a != aggs[0] {
				identical = false
			}
		}
		for i := range rows {
			flag := identical
			rows[i].BitIdenticalAcrossWorkers = &flag
		}
		snap.Results = append(snap.Results, rows...)
	}
	return snap
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_suite.json", "snapshot path to write (ignored with -check)")
	check := fs.Bool("check", false, "re-run the suite and fail on drift against -baseline instead of writing")
	baseline := fs.String("baseline", "BENCH_suite.json", "committed snapshot to diff against with -check")
	scale := fs.Float64("scale", 1, "multiply every workload's trial count (CI uses small scales)")
	reps := fs.Int("reps", 5, "repetitions per cell; min-of-N timing")
	workersFlag := fs.String("workers", "1,4,8", "comma-separated worker counts to sweep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	wls, err := buildWorkloads()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	snap := runSuite(wls, workers, *reps, *scale, stderr)

	if *check {
		base, err := benchkit.Load(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "bench: loading baseline: %v\n", err)
			return 1
		}
		drifts := benchkit.Compare(base, snap, benchkit.CompareOpts{
			NsDriftPct: benchkit.NsDriftPctFromEnv(),
		})
		if len(drifts) > 0 {
			fmt.Fprintf(stdout, "bench: %d regression(s) against %s:\n", len(drifts), *baseline)
			for _, d := range drifts {
				fmt.Fprintf(stdout, "  %s\n", d)
			}
			return 1
		}
		fmt.Fprintf(stdout, "bench: no drift against %s (%d rows, ns gate %.0f%%)\n",
			*baseline, len(base.Results), benchkit.NsDriftPctFromEnv())
		return 0
	}

	if err := snap.Write(*out); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench: wrote %d results to %s\n", len(snap.Results), *out)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
