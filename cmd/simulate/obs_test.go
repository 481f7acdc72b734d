package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"reskit"
)

// TestMalformedCkptExitsCleanly runs the real binary (the test executable
// re-executing main) with a malformed -ckpt law and checks that it exits
// with status 1 and a one-line error — no panic, no stack trace.
func TestMalformedCkptExitsCleanly(t *testing.T) {
	if os.Getenv("SIMULATE_REEXEC") == "1" {
		os.Args = []string{"simulate", "-R", "10", "-ckpt", "bogus:1,2"}
		main()
		t.Fatal("main returned instead of exiting") // unreachable on success
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMalformedCkptExitsCleanly")
	cmd.Env = append(os.Environ(), "SIMULATE_REEXEC=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v (output %q)", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1 (output %q)", code, out)
	}
	if !bytes.Contains(out, []byte("simulate:")) {
		t.Errorf("stderr should carry the simulate: error prefix, got %q", out)
	}
	for _, forbidden := range []string{"panic:", "goroutine "} {
		if bytes.Contains(out, []byte(forbidden)) {
			t.Errorf("malformed input must not produce a stack trace, got %q", out)
		}
	}
}

// panicWriter simulates a programming bug in the output path.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("writer bug") }

// TestRunDoesNotSwallowPanics verifies the CLI no longer recovers
// arbitrary panics: a bug that panics must propagate to the caller.
func TestRunDoesNotSwallowPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed; run must let programming bugs crash")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "writer bug") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	_ = run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "10", "-seed", "1",
	}, panicWriter{})
}

// TestMetricsSnapshotFile checks the -metrics JSON carries the trial,
// fault, integrand-eval and strategy-decision counters.
func TestMetricsSnapshotFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "400", "-seed", "7", "-mtbf", "40",
		"-strategies", "dynamic,static",
		"-metrics", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap reskit.ObsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	for _, name := range []string{
		"sim.trials", "sim.tasks", "sim.checkpoints", "sim.crashes",
		"quad.evals", "strategy.dynamic.continue", "strategy.dynamic.checkpoint",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0 (have %v)", name, snap.Counters[name], keys(snap.Counters))
		}
	}
	// Two strategies x 400 trials each.
	if got := snap.Counters["sim.trials"]; got != 800 {
		t.Errorf("sim.trials = %d, want 800", got)
	}
	q, ok := snap.Quantiles["sim.saved_work"]
	if !ok || q.Count != 800 {
		t.Errorf("sim.saved_work quantile sketch = %+v, want 800 samples", q)
	}
	if !(q.Min >= 0 && q.P50 >= q.Min && q.P90 >= q.P50 && q.P99 >= q.P90 && q.Max >= q.P99 && q.Max <= 29) {
		t.Errorf("sim.saved_work quantiles out of order or range: %+v", q)
	}
}

// TestMetricsHistFlagFeedsTheSketch checks that -hist adds no second
// saved-work instrument: the reservations it re-simulates for the ASCII
// chart feed the "sim.saved_work" quantile sketch, and the snapshot holds
// no histogram.
func TestMetricsHistFlagFeedsTheSketch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "400", "-seed", "7", "-strategies", "dynamic",
		"-hist", "-metrics", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("histogram")) {
		t.Errorf("metrics snapshot still carries a histogram:\n%s", data)
	}
	var snap reskit.ObsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	// 400 Monte-Carlo trials plus the 400 reservations printHistogram
	// re-simulates for the ASCII chart, all with the observer attached.
	if q, ok := snap.Quantiles["sim.saved_work"]; !ok || q.Count != 800 {
		t.Errorf("sim.saved_work quantile sketch = %+v, want 800 samples under -hist", q)
	}
}

func keys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestMetricsDoNotPerturbResults runs the same workflow with and without
// the observability layer and requires byte-identical stdout.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	args := []string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "300", "-seed", "3", "-mtbf", "25", "-strategies", "dynamic,static,never",
	}
	var bare bytes.Buffer
	if err := run(args, &bare); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	var observed bytes.Buffer
	if err := run(append(append([]string{}, args...), "-metrics", path), &observed); err != nil {
		t.Fatal(err)
	}
	if bare.String() != observed.String() {
		t.Errorf("observability changed the results:\nbare:\n%s\nobserved:\n%s", bare.String(), observed.String())
	}

	// The canonical gamma campaign decides from the coefficient table
	// after every recovery and ends reservations in the dynamic rule's
	// dead zone, so its run also exercises the off-table decision
	// counters: bound by -metrics, they must leave the results as they
	// are.
	campaign := []string{
		"-campaign", "-R", "29", "-task", "gamma:6,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "500", "-trials", "1000", "-seed", "3",
	}
	bare.Reset()
	if err := run(campaign, &bare); err != nil {
		t.Fatal(err)
	}
	observed.Reset()
	if err := run(append(append([]string{}, campaign...), "-metrics", path), &observed); err != nil {
		t.Fatal(err)
	}
	if got, want := campaignResultLines(observed.String()), campaignResultLines(bare.String()); got != want {
		t.Errorf("observability changed the campaign results:\nbare:\n%s\nobserved:\n%s", want, got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap reskit.ObsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if _, ok := snap.Counters["core.exact_decisions"]; !ok {
		t.Errorf("core.exact_decisions not bound (have %v)", keys(snap.Counters))
	}
	if snap.Counters["core.deadzone_decisions"] <= 0 {
		t.Errorf("core.deadzone_decisions = %d, want > 0", snap.Counters["core.deadzone_decisions"])
	}
}

// TestCampaignMetricsFile checks that a campaign's -metrics file carries
// the campaign counter and the engine's throughput instruments: the
// per-job wall-time sketch and the jobs/s gauge.
func TestCampaignMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var buf bytes.Buffer
	err := run([]string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "120", "-trials", "60", "-seed", "2",
		"-metrics", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap reskit.ObsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if got := snap.Counters["sim.campaigns"]; got != 60 {
		t.Errorf("sim.campaigns = %d, want 60", got)
	}
	if _, ok := snap.Gauges["engine.jobs_per_sec"]; !ok {
		t.Errorf("engine.jobs_per_sec missing (gauges %v)", snap.Gauges)
	}
	if q, ok := snap.Quantiles["engine.ns_per_job"]; !ok || !(q.P50 > 0) {
		t.Errorf("engine.ns_per_job = %+v, want a positive p50", q)
	}
}

// TestTraceJSONL checks the -trace output: one JSON object per line,
// trial indices matching the deterministic sampling rule.
func TestTraceJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf bytes.Buffer
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "200", "-seed", "5", "-strategies", "dynamic",
		"-trace", path, "-tracesample", "50",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev struct {
			Trial int64   `json:"trial"`
			Kind  string  `json:"kind"`
			T     float64 `json:"t"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%q)", lines, err, sc.Text())
		}
		if ev.Trial%50 != 0 || ev.Trial < 0 || ev.Trial >= 200 {
			t.Fatalf("trial %d outside the 1-in-50 sample of [0,200)", ev.Trial)
		}
		if ev.Kind == "" {
			t.Fatalf("line %d has no event kind", lines)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trace file is empty")
	}
}

// TestListenServesDebugVars starts the debug endpoint on an ephemeral
// port and fetches /debug/vars and a pprof page through it.
func TestListenServesDebugVars(t *testing.T) {
	var buf bytes.Buffer
	ob, err := setupObs(&buf, false, "", "127.0.0.1:0", "", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ob.finish()

	// The printed line carries the actual bound address.
	line := strings.TrimSpace(buf.String())
	const prefix = "observability: http://"
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected announcement %q", line)
	}
	addr := strings.Fields(strings.TrimPrefix(line, prefix))[0]
	addr = strings.TrimSuffix(addr, "/debug/vars")

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["reskit"]; !ok {
		t.Error("/debug/vars should publish the reskit metrics snapshot")
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d", resp.StatusCode)
	}
}

// TestProgressFlagRuns exercises the -progress reporter end to end (the
// output goes to stderr; here we only require a clean run).
func TestProgressFlagRuns(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "120", "-trials", "40", "-seed", "2",
		"-progress",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean reservations") {
		t.Errorf("campaign output missing: %q", buf.String())
	}
}

// TestListenServesPromMetrics fetches /metrics from the debug endpoint
// and checks the Prometheus exposition contract: the scrape content
// type, and at least one TYPE-announced reskit_-prefixed sample.
func TestListenServesPromMetrics(t *testing.T) {
	var buf bytes.Buffer
	ob, err := setupObs(&buf, false, "", "127.0.0.1:0", "", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ob.finish()
	ob.reg.Counter("sim.trials").Add(7)

	line := strings.TrimSpace(buf.String())
	addr := strings.Fields(strings.TrimPrefix(line, "observability: http://"))[0]
	addr = strings.TrimSuffix(addr, "/debug/vars")

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{"# TYPE reskit_sim_trials counter", "reskit_sim_trials 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestListenServerIsHardened pins the Slowloris fix: the debug listener
// must come from internal/httpd, whose servers bound header reads.
func TestListenServerIsHardened(t *testing.T) {
	var buf bytes.Buffer
	ob, err := setupObs(&buf, false, "", "127.0.0.1:0", "", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ob.finish()
	if ob.srv == nil {
		t.Fatal("listen did not record its server")
	}
}
