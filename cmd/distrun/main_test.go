package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"reskit"
	"reskit/cmd/internal/campaign"
	"reskit/internal/ckpt"
	"reskit/internal/distrun"
	"reskit/internal/engine"
	"reskit/internal/httpd"
	"reskit/internal/sim"
)

// campaignArgs is the shared flag set of the end-to-end test run —
// identical for coordinator and workers, as the protocol demands.
var campaignArgs = []string{
	"-R", "60", "-task", "exp:0.05", "-ckpt", "uniform:1,3",
	"-totalwork", "120", "-trials", "1280", "-seed", "7",
}

// testTrials is the -trials value of campaignArgs.
const testTrials = 1280

// testFlags parses args (campaignArgs plus extras) into the campaign
// flags, as the CLI does.
func testFlags(t *testing.T, args ...string) *campaign.Flags {
	t.Helper()
	var cf campaign.Flags
	fs := flag.NewFlagSet("distrun", flag.ContinueOnError)
	cf.Register(fs)
	if err := fs.Parse(append(append([]string{}, campaignArgs...), args...)); err != nil {
		t.Fatal(err)
	}
	return &cf
}

// testCampaign builds the campaign of campaignArgs as the CLI does.
func testCampaign(t *testing.T) reskit.CampaignConfig {
	t.Helper()
	cf := testFlags(t)
	law, plan, err := cf.Parse()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := cf.Config(law, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// startCoordinator runs the CLI coordinator with args on a random
// loopback port and returns its base URL once it is published, the
// channel run's error arrives on, and the coordinator's output.
func startCoordinator(t *testing.T, args ...string) (url string, coErr <-chan error, coOut *bytes.Buffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	coOut = new(bytes.Buffer)
	errc := make(chan error, 1)
	args = append(append([]string{}, args...), "-listen", "127.0.0.1:0", "-addr-file", addrFile)
	go func() { errc <- run(args, coOut) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never published its address; output so far:\n%s", coOut.String())
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			return "http://" + strings.TrimSpace(string(data)), errc, coOut
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCoordinator fails the test unless the coordinator finishes
// cleanly within 30 s.
func waitCoordinator(t *testing.T, coErr <-chan error, coOut *bytes.Buffer) {
	t.Helper()
	select {
	case err := <-coErr:
		if err != nil {
			t.Fatalf("coordinator: %v\noutput:\n%s", err, coOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator never finished; output:\n%s", coOut.String())
	}
}

// localAggregate computes the reference aggregate through the local
// engine, exactly as simulate's campaign mode would.
func localAggregate(t *testing.T) sim.CampaignAggregate {
	t.Helper()
	grid := sim.CampaignGrid(testCampaign(t), testTrials)
	res, err := engine.Run(context.Background(), engine.Spec{Jobs: grid.Jobs(), Seed: 7})
	if err != nil {
		t.Fatalf("local reference: %v", err)
	}
	agg, err := sim.MergeCampaignPayloads(res.Payloads)
	if err != nil {
		t.Fatalf("local merge: %v", err)
	}
	return agg
}

// TestDistrunEndToEnd drives the real CLI: one coordinator (bound to a
// random port, address published through -addr-file), two workers, and
// a final aggregate that must match a local single-process run to the
// printed digit.
func TestDistrunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	coArgs := append([]string{}, campaignArgs...)
	coArgs = append(coArgs,
		"-checkpoint", filepath.Join(dir, "run.ckpt"), "-checkpoint-interval", "10ms",
		"-lease-ttl", "2s", "-target-lease", "20ms",
	)
	url, coErr, coOut := startCoordinator(t, coArgs...)

	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for w := range werrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wArgs := append([]string{}, campaignArgs...)
			wArgs = append(wArgs, "-worker", url, "-name", fmt.Sprintf("w%d", w), "-workers", "2")
			var wOut bytes.Buffer
			werrs[w] = run(wArgs, &wOut)
		}(w)
	}
	wg.Wait()
	for w, werr := range werrs {
		if werr != nil {
			t.Errorf("worker %d: %v", w, werr)
		}
	}
	waitCoordinator(t, coErr, coOut)

	// The printed aggregate must carry the local run's exact numbers.
	want := localAggregate(t)
	out := coOut.String()
	for what, v := range map[string]float64{
		"mean utilization": want.Utilization,
		"mean lost work":   want.LostWork,
	} {
		if !strings.Contains(out, fmt.Sprintf("%.4g", v)) {
			t.Errorf("coordinator output lacks the local run's %s %.4g:\n%s", what, v, out)
		}
	}
	if !strings.Contains(out, "all completed") {
		t.Errorf("coordinator output lacks the aggregate table:\n%s", out)
	}
	// A fully completed run retires its snapshot generations.
	if _, err := os.Stat(filepath.Join(dir, "run.ckpt")); !os.IsNotExist(err) {
		t.Errorf("completed run left its snapshot behind (stat err: %v)", err)
	}
}

// TestDistrunFaultSweepMatchesSimulate distributes a -faultsweep grid
// through the real CLI (coordinator plus one worker) and checks the
// printed per-row aggregates against a local engine run of the very job
// grid simulate -campaign -faultsweep builds — same sweep configs, same
// block payload functions, same row-major merge — so the two CLIs are
// pinned to bit-identical sweep results.
func TestDistrunFaultSweepMatchesSimulate(t *testing.T) {
	sweepArgs := append([]string{}, campaignArgs...)
	sweepArgs = append(sweepArgs, "-faultsweep", "30,60")
	coArgs := append([]string{}, sweepArgs...)
	coArgs = append(coArgs, "-lease-ttl", "2s", "-target-lease", "20ms")
	url, coErr, coOut := startCoordinator(t, coArgs...)
	wArgs := append([]string{}, sweepArgs...)
	wArgs = append(wArgs, "-worker", url, "-workers", "2")
	var wOut bytes.Buffer
	if werr := run(wArgs, &wOut); werr != nil {
		t.Errorf("worker: %v", werr)
	}
	waitCoordinator(t, coErr, coOut)

	// Local reference: the identical grid simulate's runFaultSweep lays
	// out, run through the in-process engine.
	grid, err := sim.FaultSweepGrid(testCampaign(t), "30,60", testTrials)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), engine.Spec{Jobs: grid.Jobs(), Seed: 7})
	if err != nil {
		t.Fatalf("local reference: %v", err)
	}
	out := coOut.String()
	if !strings.Contains(out, "MTBF") {
		t.Fatalf("coordinator output lacks the sweep table:\n%s", out)
	}
	for ri, m := range grid.MTBFs {
		agg, merr := sim.MergeCampaignPayloads(grid.Row(res.Payloads, ri))
		if merr != nil {
			t.Fatalf("local merge row %d: %v", ri, merr)
		}
		for what, v := range map[string]float64{
			"lost work":   agg.LostWork,
			"utilization": agg.Utilization,
			"crashes":     agg.Crashes,
		} {
			if !strings.Contains(out, fmt.Sprintf("%.4g", v)) {
				t.Errorf("sweep row mtbf=%g: output lacks local %s %.4g:\n%s", m, what, v, out)
			}
		}
	}
}

// TestDistrunFlagValidation: the CLI refuses contradictory or missing
// flags before touching the network.
func TestDistrunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing R", []string{"-ckpt", "uniform:1,3", "-task", "exp:0.05"}, "-R must be positive"},
		{"missing ckpt", []string{"-R", "60", "-task", "exp:0.05"}, "-ckpt is required"},
		{"missing law", []string{"-R", "60", "-ckpt", "uniform:1,3"}, "-task or -taskdisc"},
		{"resume without checkpoint", []string{"-R", "60", "-ckpt", "uniform:1,3", "-task", "exp:0.05", "-resume"}, "-resume requires -checkpoint"},
		{"bad mtbf", []string{"-R", "60", "-ckpt", "uniform:1,3", "-task", "exp:0.05", "-mtbf", "-3"}, "-mtbf must be positive"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestDistrunFingerprintMatchesSimulate pins the fingerprints both CLIs
// take from campaign.Flags to the values they had when each CLI hashed
// its own copy of the parts: if this breaks, existing snapshots stop
// resuming and old workers stop matching their coordinator.
func TestDistrunFingerprintMatchesSimulate(t *testing.T) {
	stop, err := reskit.ParseStopSpec("rel=0.01")
	if err != nil {
		t.Fatal(err)
	}
	grid, sweep := testFlags(t), testFlags(t, "-faultsweep", "30,60")
	_, plan, err := grid.Parse()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"campaign", grid.Fingerprint(plan), 0x059dedbcf11c7c2d},
		{"faultsweep", sweep.Fingerprint(plan), 0xdab41c4ba450ea05},
		{"stream", grid.StreamFingerprint(plan, stop, "util"), 0x58915f20b6aa919c},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %016x, want %016x", tc.name, tc.got, tc.want)
		}
	}
}

// TestDistrunRefusesPreEpochWorker: a worker that fingerprints the run
// without the numerics epoch (the same facets hashed the way builds
// before the epoch hashed them), or under an earlier epoch, computes its
// payloads with older numerical kernels. The coordinator must refuse it
// with 409, and a current worker must still finish the run. The
// numerics/2 worker is accepted if a kernel change forgets to bump the
// epoch.
func TestDistrunRefusesPreEpochWorker(t *testing.T) {
	url, coErr, coOut := startCoordinator(t, campaignArgs...)

	grid := sim.CampaignGrid(testCampaign(t), testTrials)
	facets := []string{
		"campaign", "R=60", "recovery=0", "task=exp:0.05", "taskdisc=",
		"ckpt=uniform:1,3", "totalwork=120", "faults=no faults", "trials=1280", "seed=7",
	}
	for _, w := range []struct{ name, epoch string }{
		{"pre-epoch", ""}, {"numerics/1", "numerics/1"}, {"numerics/2", "numerics/2"},
	} {
		parts := facets
		if w.epoch != "" {
			parts = append([]string{w.epoch}, facets...)
		}
		err := distrun.RunWorker(context.Background(), distrun.WorkerConfig{
			URL: url, Name: w.name, NumJobs: grid.NumJobs(), Seed: 7, Fingerprint: ckpt.Fingerprint(parts...), Job: grid.Job,
		})
		var serr *httpd.StatusError
		if !errors.As(err, &serr) || serr.Status != 409 || !strings.Contains(serr.Message, "fingerprint") {
			t.Fatalf("%s worker: err = %v, want a 409 fingerprint refusal", w.name, err)
		}
	}

	wArgs := append([]string{}, campaignArgs...)
	wArgs = append(wArgs, "-worker", url, "-name", "current")
	if err := run(wArgs, &bytes.Buffer{}); err != nil {
		t.Fatalf("current worker: %v", err)
	}
	waitCoordinator(t, coErr, coOut)
}

// TestDistrunInterruptBeforeFirstCommitSavesNothing runs the real
// coordinator (the test binary re-executing main) with -checkpoint and
// no workers, and SIGINTs it once it listens. Nothing committed, so no
// snapshot was written: the coordinator must exit with the interrupted
// code and say that nothing was saved instead of naming a resumable file.
func TestDistrunInterruptBeforeFirstCommitSavesNothing(t *testing.T) {
	if os.Getenv("DISTRUN_REEXEC") == "1" {
		os.Args = append([]string{"distrun"}, append(append([]string{}, campaignArgs...),
			"-checkpoint", os.Getenv("DISTRUN_CKPT"), "-addr-file", os.Getenv("DISTRUN_ADDR"))...)
		main()
		t.Fatal("main returned instead of exiting")
	}
	dir := t.TempDir()
	path, addrFile := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "addr")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDistrunInterruptBeforeFirstCommitSavesNothing$")
	cmd.Env = append(os.Environ(), "DISTRUN_REEXEC=1", "DISTRUN_CKPT="+path, "DISTRUN_ADDR="+addrFile)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(addrFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("coordinator never published its address (output %q)", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var ee *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &ee) || ee.ExitCode() != campaign.ExitInterrupted {
		t.Fatalf("exit = %v, want code %d (output %q)", err, campaign.ExitInterrupted, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "no jobs committed, so nothing was saved to "+path) {
		t.Errorf("output should say nothing was saved:\n%s", got)
	}
	if strings.Contains(got, "rerun with -resume") || strings.Contains(got, "resumable") {
		t.Errorf("output advertises a snapshot that was never written:\n%s", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot file exists after a run that committed nothing (stat err %v)", err)
	}
}
