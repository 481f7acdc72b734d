package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reskit"
	"reskit/cmd/internal/campaign"
	"reskit/internal/ckpt"
	"reskit/internal/sim"
)

// campaignArgs is the fixed campaign configuration shared by the
// checkpoint CLI tests; every invocation must produce bit-identical
// aggregates, interrupted or not.
func campaignArgs(extra ...string) []string {
	args := []string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "150", "-trials", "60000", "-seed", "9",
	}
	return append(args, extra...)
}

// campaignResultLines strips the output down to the aggregate lines —
// everything except wall time (which legitimately differs across runs)
// and the resume/interrupted status lines.
func campaignResultLines(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "mean ") || strings.HasPrefix(line, "completion rate") ||
			strings.HasPrefix(line, "all completed") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestCheckpointFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"resume without checkpoint",
			campaignArgs("-resume"),
			"-resume requires -checkpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestCampaignCheckpointTimeoutResume interrupts a checkpointed campaign
// in-process via -timeout, then resumes it and requires the aggregate
// lines bit-identical to an uninterrupted reference run.
func TestCampaignCheckpointTimeoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")

	var ref bytes.Buffer
	if err := run(campaignArgs(), &ref); err != nil {
		t.Fatal(err)
	}

	var interrupted bytes.Buffer
	if err := run(campaignArgs("-checkpoint", path, "-checkpoint-interval", "1ms", "-timeout", "300ms"),
		&interrupted); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(interrupted.String(), "rerun with -resume") {
		t.Skipf("campaign finished before the 300ms timeout; nothing to resume (output %q)", interrupted.String())
	}
	if _, err := reskit.LoadRunState(path); err != nil {
		t.Fatalf("snapshot after timeout is unusable: %v", err)
	}

	var resumed bytes.Buffer
	if err := run(campaignArgs("-checkpoint", path, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resume: restoring") {
		t.Errorf("resume did not restore blocks: %q", resumed.String())
	}
	if got, want := campaignResultLines(resumed.String()), campaignResultLines(ref.String()); got != want {
		t.Errorf("resumed aggregates differ from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot should be removed after a completed campaign (stat err %v)", err)
	}
}

// TestInterruptBeforeFirstCommitSavesNothing: a checkpointed run cut
// short before its first job (grid) or block (stream) commits writes no
// snapshot, so it must say that nothing was saved instead of pointing at
// -resume and a file that does not exist.
func TestInterruptBeforeFirstCommitSavesNothing(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"grid", "no jobs committed"},
		{"stream", "no blocks committed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			args := campaignArgs("-checkpoint", path, "-timeout", "1ns")
			if tc.name == "stream" {
				args = streamArgs("-checkpoint", path, "-timeout", "1ns")
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			if !strings.Contains(got, tc.want) || !strings.Contains(got, "nothing was saved to "+path) {
				t.Errorf("output should say nothing was saved (%q):\n%s", tc.want, got)
			}
			if strings.Contains(got, "rerun with -resume") {
				t.Errorf("output advertises a snapshot that was never written:\n%s", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("snapshot file exists after a run that committed nothing (stat err %v)", err)
			}
		})
	}
}

// TestResumeMismatchedConfigStartsFresh changes the seed between the
// interrupted run and the resume; the fingerprint/seed gate must refuse
// the snapshot with a warning and still produce the right numbers.
func TestResumeMismatchedConfigStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "120", "-trials", "200",
	}
	if err := run(append(append([]string{}, args...), "-seed", "1", "-checkpoint", path, "-timeout", "1ns"),
		&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(append(append([]string{}, args...), "-seed", "2", "-checkpoint", path, "-resume"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "starting fresh") {
		t.Errorf("mismatched snapshot should trigger a fresh run, got %q", out.String())
	}
}

// TestResumeRefusesPreEpochSnapshot: a snapshot fingerprinted without
// the numerics epoch (the same facets hashed the way builds before the
// epoch hashed them), or under an earlier epoch, holds payloads from
// older numerical kernels, which differ in their low bits. Resume must
// refuse it and start fresh, while the same snapshot under the current
// fingerprint is restored. The numerics/2 case fails if a kernel change
// forgets to bump the epoch.
func TestResumeRefusesPreEpochSnapshot(t *testing.T) {
	args := []string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "120", "-trials", "2000", "-seed", "5",
	}
	parts := []string{
		"campaign", "R=29", "recovery=1.5", "task=norm:3,0.5@[0,inf]", "taskdisc=",
		"ckpt=norm:5,0.4@[0,inf]", "totalwork=120", "faults=no faults", "trials=2000", "seed=5",
	}
	var fresh bytes.Buffer
	if err := run(args, &fresh); err != nil {
		t.Fatal(err)
	}
	jobs := int64(sim.NumCampaignBlocks(2000))
	for _, tc := range []struct {
		name string
		fp   uint64
		want string
	}{
		{"current", reskit.ConfigFingerprint(parts...), "resume: restoring 0/"},
		{"pre-epoch", ckpt.Fingerprint(parts...), "does not match this run"},
		{"numerics/1", ckpt.Fingerprint(append([]string{"numerics/1"}, parts...)...), "does not match this run"},
		{"numerics/2", ckpt.Fingerprint(append([]string{"numerics/2"}, parts...)...), "does not match this run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := ckpt.New(tc.fp, 5, jobs).WriteFile(path); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(append(append([]string{}, args...), "-checkpoint", path, "-resume"), &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("resume output lacks %q:\n%s", tc.want, out.String())
			}
			if got, want := campaignResultLines(out.String()), campaignResultLines(fresh.String()); got != want {
				t.Errorf("aggregates differ from a fresh run:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestResumeMissingSnapshotStartsFresh covers the first launch of a
// to-be-resumed pipeline: -resume with no snapshot yet just starts.
func TestResumeMissingSnapshotStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never-written.ckpt")
	var out bytes.Buffer
	err := run([]string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "120", "-trials", "100", "-seed", "4",
		"-checkpoint", path, "-resume",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no usable snapshot") {
		t.Errorf("missing snapshot should be announced, got %q", out.String())
	}
}

// TestSigintLeavesResumableSnapshot is the end-to-end acceptance test of
// the durable-run tentpole: the real binary (the test executable
// re-executing main) runs a slow checkpointed campaign, receives SIGINT
// mid-flight, and must exit with the distinct "interrupted" code leaving
// a valid snapshot behind; resuming from that snapshot must reproduce
// the uninterrupted aggregates bit-for-bit.
func TestSigintLeavesResumableSnapshot(t *testing.T) {
	path := os.Getenv("SIMULATE_SIGINT_CKPT")
	if os.Getenv("SIMULATE_REEXEC") == "1" && path != "" {
		os.Args = append([]string{"simulate"},
			campaignArgs("-checkpoint", path, "-checkpoint-interval", "1ms")...)
		main()
		t.Fatal("main returned instead of exiting") // unreachable on success
	}

	path = filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run", "TestSigintLeavesResumableSnapshot")
	cmd.Env = append(os.Environ(), "SIMULATE_REEXEC=1", "SIMULATE_SIGINT_CKPT="+path)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Interrupt as soon as the first snapshot lands (the 1ms interval
	// makes that the first completed block).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no snapshot appeared within 30s (output %q)", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error after SIGINT, got %v (output %q)", err, out.String())
	}
	if code := ee.ExitCode(); code != campaign.ExitInterrupted {
		t.Fatalf("exit code = %d, want %d (output %q)", code, campaign.ExitInterrupted, out.String())
	}
	if !strings.Contains(out.String(), "rerun with -resume") {
		t.Errorf("interrupted run should point at -resume, got %q", out.String())
	}

	st, err := reskit.LoadRunState(path)
	if err != nil {
		t.Fatalf("snapshot left by SIGINT is unusable: %v", err)
	}
	if st.Done() == 0 {
		t.Fatal("snapshot recorded no completed blocks")
	}

	var ref, resumed bytes.Buffer
	if err := run(campaignArgs(), &ref); err != nil {
		t.Fatal(err)
	}
	if err := run(campaignArgs("-checkpoint", path, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resume: restoring") {
		t.Errorf("resume did not restore blocks: %q", resumed.String())
	}
	if got, want := campaignResultLines(resumed.String()), campaignResultLines(ref.String()); got != want {
		t.Errorf("post-SIGINT resume differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAtomicOutputsLeaveNoTemp checks that the -metrics and -trace
// writers go through the atomic write path and leave no temporary
// droppings next to their destinations.
func TestAtomicOutputsLeaveNoTemp(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "200", "-seed", "5", "-strategies", "dynamic",
		"-metrics", filepath.Join(dir, "m.json"),
		"-trace", filepath.Join(dir, "trace.jsonl"), "-tracesample", "50",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temporary file left behind: %s", e.Name())
		}
	}
	for _, want := range []string{"m.json", "trace.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing output %s (dir has %v)", want, names)
		}
	}
}
