// Command figures regenerates every figure of Barbut et al. (FTXS'23):
// it writes an SVG and a CSV per figure into -out, prints an ASCII
// rendition (with -ascii), and reports measured values next to the
// paper's reference values, exiting nonzero if any figure fails to
// reproduce within tolerance.
//
// Figures render as jobs of the shared run engine (internal/engine) —
// one job per figure, artifacts written atomically — so generation is
// parallel, -progress reports live per-figure progress, and -metrics
// snapshots the engine and quadrature counters.
//
//	figures -out out/figures
//	figures -only fig5,fig8 -ascii
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"reskit/internal/engine"
	"reskit/internal/figures"
)

func main() {
	outDir := flag.String("out", "out/figures", "directory for SVG and CSV output")
	only := flag.String("only", "", "comma-separated figure ids to restrict to (e.g. fig5,fig8)")
	ascii := flag.Bool("ascii", false, "also print ASCII renditions")
	extended := flag.Bool("extended", false, "also render the repository's extended ablation figures (ext1-ext4)")
	progress := flag.Bool("progress", false, "print live per-figure progress to stderr")
	metrics := flag.String("metrics", "", "write a JSON metrics snapshot (engine and quadrature counters) to this file on exit")
	flag.Parse()

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	failures, err := generateWith(context.Background(), *outDir, wanted, *ascii, *extended, os.Stdout,
		figures.RunOptions{Progress: *progress, MetricsPath: *metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d figure(s) failed\n", failures)
		os.Exit(1)
	}
}

// generate renders the selected figures into outDir, printing the
// paper-vs-measured report to out, and returns the number of figures
// that failed to reproduce.
func generate(outDir string, wanted map[string]bool, ascii, extended bool, out io.Writer) (failures int, err error) {
	return generateWith(context.Background(), outDir, wanted, ascii, extended, out, figures.RunOptions{})
}

// generateWith renders each selected figure as one engine job: the job
// builds its figure, renders SVG and CSV into artifacts (written
// atomically by the engine), and returns the report block, which
// prints in figure order afterwards.
func generateWith(ctx context.Context, outDir string, wanted map[string]bool, ascii, extended bool,
	out io.Writer, o figures.RunOptions) (failures int, err error) {

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	gens := figures.Generators()
	if extended {
		gens = append(gens, figures.ExtendedGenerators()...)
	}
	sel := gens[:0]
	for _, g := range gens {
		if len(wanted) > 0 && !wanted[g.ID] {
			continue
		}
		sel = append(sel, g)
	}

	render := func(fig *figures.Figure) (figures.Rendered, error) {
		var svg, csv, report bytes.Buffer
		if err := fig.Plot.SVG(&svg, 720, 440); err != nil {
			return figures.Rendered{}, err
		}
		if err := fig.Plot.CSV(&csv); err != nil {
			return figures.Rendered{}, err
		}
		if ascii {
			if err := fig.Plot.ASCII(&report, 76, 18); err != nil {
				return figures.Rendered{}, err
			}
		}
		fmt.Fprintf(&report, "%s  %s\n", fig.ID, fig.Title)
		for _, k := range fig.Keys() {
			fmt.Fprintf(&report, "    %-14s paper %-10.6g measured %-10.6g\n", k, fig.Reference[k], fig.Measured[k])
		}
		bad := fig.Check()
		for _, m := range bad {
			fmt.Fprintf(&report, "    MISMATCH: %s\n", m)
		}
		if len(bad) == 0 {
			fmt.Fprintf(&report, "    OK: reproduces within tolerance\n")
		}
		return figures.Rendered{
			Text:   report.String(),
			Failed: len(bad) > 0,
			Artifacts: []engine.Artifact{
				{Path: filepath.Join(outDir, fig.ID+".svg"), Data: svg.Bytes()},
				{Path: filepath.Join(outDir, fig.ID+".csv"), Data: csv.Bytes()},
			},
		}, nil
	}
	emit := func(texts []string) error {
		for _, text := range texts {
			if _, err := io.WriteString(out, text); err != nil {
				return err
			}
		}
		return nil
	}
	return figures.Run(ctx, sel, o, render, emit)
}
