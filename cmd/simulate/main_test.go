package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWorkflowComparison(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "4000", "-seed", "1",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"oracle", "dynamic", "static", "pessimistic", "n_opt = 7", "W_int = 20.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWorkflowDiscrete(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-taskdisc", "poisson:3", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "4000", "-strategies", "static,dynamic",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n_opt = 6") {
		t.Errorf("Fig 7 n_opt missing:\n%s", buf.String())
	}
}

func TestPreemptValidation(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-preempt", "-R", "10", "-ckpt", "exp:0.5@[1,5]", "-trials", "20000",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"optimal", "pessimistic", "oracle", "success"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-R", "10"},
		{"-R", "10", "-ckpt", "norm:5,0.4@[0,inf]"},                                              // no task
		{"-R", "10", "-task", "bogus", "-ckpt", "norm:5,0.4@[0,inf]"},                            // bad law
		{"-R", "10", "-task", "gamma:1,1", "-ckpt", "norm:5,0.4@[0,inf]", "-strategies", "nope"}, // bad strategy
		{"-R", "10", "-task", "gamma:1,1", "-ckpt", "norm:5,0.4@[0,inf]", "-recovery", "-1"},     // bad recovery
	}
	for i, args := range cases {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestWorkflowWithFailures(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "100", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:2,0.3@[0,inf]",
		"-trials", "2000", "-mtbf", "25",
		"-strategies", "dynamic,youngdaly",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "youngdaly") {
		t.Errorf("missing youngdaly row:\n%s", buf.String())
	}
}

func TestYoungDalyRequiresFailrate(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-task", "gamma:1,1", "-ckpt", "norm:2,0.3@[0,inf]",
		"-trials", "500", "-strategies", "youngdaly",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "needs exponential crashes") {
		t.Errorf("missing crash-rate hint:\n%s", buf.String())
	}
}

func TestCampaignMode(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "100", "-trials", "64", "-workers", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mean reservations", "mean utilization", "all completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "all completed") && !strings.Contains(line, "true") {
			t.Errorf("campaign did not complete: %q", line)
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	cases := [][]string{
		{"-campaign", "-R", "29", "-ckpt", "norm:5,0.4@[0,inf]"}, // no task
		{"-campaign", "-R", "29", "-task", "gamma:1,1", "-ckpt", "norm:5,0.4@[0,inf]",
			"-totalwork", "-3"}, // bad total work
	}
	for i, args := range cases {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-task", "gamma:1,1", "-ckpt", "norm:2,0.3@[0,inf]",
		"-trials", "500", "-strategies", "static",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestWorkflowHistogram(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-task", "gamma:1,1", "-ckpt", "norm:2,0.3@[0,inf]",
		"-trials", "2000", "-strategies", "static,oracle", "-hist",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Errorf("histogram bars missing:\n%s", buf.String())
	}
	// The oracle row charts the clairvoyant scheduler, which saves about
	// 26 of 29, not the never strategy its config carries: fewer than
	// half of its runs land in the first bin.
	lines := strings.Split(buf.String(), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "oracle ") || i+1 == len(lines) {
			continue
		}
		fields := strings.Fields(lines[i+1])
		n, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil || !strings.HasPrefix(lines[i+1], "  [  0.0-") {
			t.Fatalf("no first bin under the oracle row:\n%s", buf.String())
		}
		if n >= 1000 {
			t.Errorf("oracle chart holds %d of 2000 runs in its first bin:\n%s", n, buf.String())
		}
		return
	}
	t.Fatalf("no oracle row:\n%s", buf.String())
}

// TestWorkflowPointMassTask: the dynamic rule refuses a point-mass task
// law, so its dynamic and threshold rows are notes and no W_int line
// prints, while the static and oracle rows run.
func TestWorkflowPointMassTask(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "10", "-task", "det:1", "-ckpt", "det:0",
		"-strategies", "dynamic,static,threshold,oracle", "-trials", "2000",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dynamic    (point-mass task law)",
		"threshold  (point-mass task law)",
		"static     9  ",
		"oracle     10 ",
		"static n_opt = 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "W_int") {
		t.Errorf("W_int printed for a point-mass task law:\n%s", out)
	}
}

// TestWorkflowUnusablePessimisticBound: a zero-length checkpoint gives
// the pessimistic strategy no finite positive bound. That strategy
// becomes a note row, and the default comparison still runs the rest.
func TestWorkflowUnusablePessimisticBound(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-R", "10", "-task", "det:1", "-ckpt", "det:0", "-trials", "2000"}, &buf); err != nil {
		t.Fatalf("default strategies: %v\n%s", err, buf.String())
	}
	rows := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, rest, ok := strings.Cut(line, " "); ok && rows[name] == "" {
			rows[name] = strings.TrimSpace(rest)
		}
	}
	for name, want := range map[string]string{
		"oracle":      "10 ",
		"static":      "9 ",
		"pessimistic": "(needs finite positive bounds)",
	} {
		if !strings.HasPrefix(rows[name], want) {
			t.Errorf("row %s = %q, want it to start with %q:\n%s", name, rows[name], want, buf.String())
		}
	}
}

func TestWorkflowFaultPlan(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "2000", "-strategies", "static,dynamic",
		"-faults", "ckptfail=0.2,revoke=uniform:0.1", "-mtbf", "50",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"faults:", "crash~exp(rate=0.02)", "ckptfail(p=0.2)", "revoke~uniform(p=0.1)",
		"E(ckptfaults)", "E(crashes)", "revoked"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWorkflowCkptFailShorthand(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "1000", "-strategies", "dynamic", "-ckptfail", "0.3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"faults: ckptfail(p=0.3)", "E(ckptfaults)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCampaignWithFaults(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "100", "-trials", "64", "-mtbf", "50",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"faults: crash~exp(rate=0.02)", "mean crashes", "mean ckpt faults",
		"mean revoked res", "completion rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFaultSweep(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "100", "-trials", "64",
		"-faultsweep", "50,200",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MTBF", "E(lost)", "completion"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One row per MTBF, in grid order: MTBF, E(lost), E(util), ...
	lost := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 6 && (f[0] == "50" || f[0] == "200") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			lost[f[0]] = v
		}
	}
	if len(lost) != 2 {
		t.Fatalf("sweep table has rows for %v, want MTBF 50 and 200:\n%s", lost, out)
	}
	if !(lost["50"] > lost["200"]) {
		t.Errorf("lost work not decreasing in MTBF: %g (MTBF 50) vs %g (MTBF 200)", lost["50"], lost["200"])
	}
}

func TestFaultFlagErrors(t *testing.T) {
	cases := [][]string{
		// -faultsweep without -campaign
		{"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
			"-faultsweep", "50,100"},
		// malformed fault spec
		{"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
			"-faults", "crash=bogus:1"},
		// out-of-range shorthand
		{"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
			"-ckptfail", "1.5"},
		// negative MTBF
		{"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
			"-recovery", "1.5", "-totalwork", "100", "-mtbf", "-4"},
		// bad sweep grid entry
		{"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
			"-recovery", "1.5", "-totalwork", "100", "-faultsweep", "50,zero"},
	}
	for i, args := range cases {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestWorkflowTimeout(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "50000000", "-strategies", "dynamic", "-timeout", "100ms",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stopped by -timeout") {
		t.Errorf("missing timeout marker:\n%s", buf.String())
	}
}
