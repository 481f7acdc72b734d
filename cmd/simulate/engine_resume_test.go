package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reskit/cmd/internal/campaign"
	"reskit/internal/ckpt"
)

// stableLines strips the resume/interrupted/checkpoint status lines, so
// a resumed run can be compared bit-for-bit against an uninterrupted
// reference (whose output has none of them).
func stableLines(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "resume:") || strings.HasPrefix(line, "interrupted:") ||
			strings.HasPrefix(line, "checkpoint:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// sigintAndWait polls until the snapshot file exists, SIGINTs the child,
// and returns its exit code (asserting a graceful interrupted exit).
func sigintAndWait(t *testing.T, cmd *exec.Cmd, path string, out *bytes.Buffer) int {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no snapshot appeared within 30s (output %q)", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		return 0 // finished before the signal landed
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error after SIGINT, got %v (output %q)", err, out.String())
	}
	return ee.ExitCode()
}

// resumeAcrossWorkers replays the interrupted snapshot with 1, 4 and 8
// workers (each from its own copy — a completed resume removes its
// snapshot) and requires every resumed output bit-identical to ref.
func resumeAcrossWorkers(t *testing.T, snapshot string, args []string, ref string) {
	t.Helper()
	data, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatalf("reading interrupted snapshot: %v", err)
	}
	for _, w := range []int{1, 4, 8} {
		copyPath := snapshot + fmt.Sprintf(".w%d", w)
		if err := os.WriteFile(copyPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var resumed bytes.Buffer
		full := append(append([]string{}, args...),
			"-checkpoint", copyPath, "-resume", "-workers", fmt.Sprint(w))
		if err := run(full, &resumed); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !strings.Contains(resumed.String(), "resume: restoring") {
			t.Errorf("workers=%d: resume did not restore jobs: %q", w, resumed.String())
		}
		if got := stableLines(resumed.String()); got != ref {
			t.Errorf("workers=%d: resumed output differs from uninterrupted run:\n got:\n%s\nwant:\n%s", w, got, ref)
		}
		if _, err := os.Stat(copyPath); !os.IsNotExist(err) {
			t.Errorf("workers=%d: snapshot should be removed after completion (stat err %v)", w, err)
		}
	}
}

// faultsweepArgs is the fixed sweep grid of the kill-and-resume test.
func faultsweepArgs() []string {
	return []string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "150", "-trials", "12000", "-seed", "11",
		"-faultsweep", "25,50",
	}
}

// TestFaultsweepSigintResume is the acceptance test of the unified
// engine for -faultsweep: the real binary runs a checkpointed sweep,
// receives SIGINT mid-grid, exits with the interrupted code leaving a
// valid snapshot, and resuming — with 1, 4 or 8 workers — reproduces
// every sweep row bit-for-bit.
func TestFaultsweepSigintResume(t *testing.T) {
	path := os.Getenv("SIMULATE_SWEEP_CKPT")
	if os.Getenv("SIMULATE_REEXEC") == "1" && path != "" {
		os.Args = append([]string{"simulate"},
			append(faultsweepArgs(), "-checkpoint", path, "-checkpoint-interval", "1ms")...)
		main()
		t.Fatal("main returned instead of exiting") // unreachable on success
	}

	path = filepath.Join(t.TempDir(), "sweep.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run", "TestFaultsweepSigintResume")
	cmd.Env = append(os.Environ(), "SIMULATE_REEXEC=1", "SIMULATE_SWEEP_CKPT="+path)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	code := sigintAndWait(t, cmd, path, &out)
	if code == 0 {
		t.Skipf("sweep finished before SIGINT landed; nothing to resume (output %q)", out.String())
	}
	if code != campaign.ExitInterrupted {
		t.Fatalf("exit code = %d, want %d (output %q)", code, campaign.ExitInterrupted, out.String())
	}
	if !strings.Contains(out.String(), "rerun with -resume") {
		t.Errorf("interrupted sweep should point at -resume, got %q", out.String())
	}
	st, err := ckpt.Load(path)
	if err != nil {
		t.Fatalf("snapshot left by SIGINT is unusable: %v", err)
	}
	if st.Done() == 0 {
		t.Fatal("snapshot recorded no completed jobs")
	}

	var ref bytes.Buffer
	if err := run(faultsweepArgs(), &ref); err != nil {
		t.Fatal(err)
	}
	resumeAcrossWorkers(t, path, faultsweepArgs(), stableLines(ref.String()))
}

// workflowArgs is the fixed strategy comparison of the kill-and-resume
// test.
func workflowArgs() []string {
	return []string{
		"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-trials", "250000", "-seed", "11", "-strategies", "dynamic,static",
	}
}

// TestWorkflowSigintResume is the same acceptance test for the strategy
// comparison mode: SIGINT mid-comparison, then bit-identical resumes
// with 1, 4 and 8 workers.
func TestWorkflowSigintResume(t *testing.T) {
	path := os.Getenv("SIMULATE_WF_CKPT")
	if os.Getenv("SIMULATE_REEXEC") == "1" && path != "" {
		os.Args = append([]string{"simulate"},
			append(workflowArgs(), "-checkpoint", path, "-checkpoint-interval", "1ms")...)
		main()
		t.Fatal("main returned instead of exiting") // unreachable on success
	}

	path = filepath.Join(t.TempDir(), "wf.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run", "TestWorkflowSigintResume")
	cmd.Env = append(os.Environ(), "SIMULATE_REEXEC=1", "SIMULATE_WF_CKPT="+path)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	code := sigintAndWait(t, cmd, path, &out)
	if code == 0 {
		t.Skipf("comparison finished before SIGINT landed; nothing to resume (output %q)", out.String())
	}
	if code != campaign.ExitInterrupted {
		t.Fatalf("exit code = %d, want %d (output %q)", code, campaign.ExitInterrupted, out.String())
	}
	st, err := ckpt.Load(path)
	if err != nil {
		t.Fatalf("snapshot left by SIGINT is unusable: %v", err)
	}
	if st.Done() == 0 {
		t.Fatal("snapshot recorded no completed jobs")
	}

	var ref bytes.Buffer
	if err := run(workflowArgs(), &ref); err != nil {
		t.Fatal(err)
	}
	resumeAcrossWorkers(t, path, workflowArgs(), stableLines(ref.String()))
}

// TestCheckpointAllModesAccepted replaces the deleted flag restrictions:
// -checkpoint now works in every mode, and a run that completes removes
// its snapshot.
func TestCheckpointAllModesAccepted(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"preempt", []string{
			"-preempt", "-R", "10", "-ckpt", "exp:0.5@[1,5]", "-trials", "3000", "-seed", "3"}},
		{"workflow", []string{
			"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
			"-trials", "2000", "-seed", "3", "-strategies", "dynamic"}},
		{"campaign", []string{
			"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
			"-recovery", "1.5", "-totalwork", "120", "-trials", "50", "-seed", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".ckpt")
			var buf bytes.Buffer
			if err := run(append(append([]string{}, tc.args...), "-checkpoint", path), &buf); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("snapshot should be removed after a completed run (stat err %v)", err)
			}
		})
	}
}
