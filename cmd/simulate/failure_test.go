package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func failureArgs(extra ...string) []string {
	return append([]string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "120", "-trials", "100", "-seed", "4",
	}, extra...)
}

func TestFailurePolicyFlagValidation(t *testing.T) {
	for _, bad := range [][]string{
		{"-retries", "-1"},
		{"-retry-backoff", "-1ms"},
		{"-job-timeout", "-1s"},
		{"-retries", "1", "-retry-backoff", "-1ms"},
	} {
		var out bytes.Buffer
		if err := run(failureArgs(bad...), &out); err == nil {
			t.Errorf("%v must be rejected", bad)
		}
	}
}

// An active failure policy must not perturb a fault-free run: the
// aggregates are bit-identical with and without it.
func TestFailurePolicyIsInertOnCleanRuns(t *testing.T) {
	var plain, withFlags bytes.Buffer
	if err := run(failureArgs(), &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(failureArgs("-retries", "3", "-retry-backoff", "1ms", "-job-timeout", "1m", "-keep-going"), &withFlags); err != nil {
		t.Fatal(err)
	}
	want := campaignResultLines(plain.String())
	if got := campaignResultLines(withFlags.String()); got != want {
		t.Errorf("the failure flags changed the aggregates:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// A run whose snapshot can never land (checkpoint path in a missing
// directory) must still complete — disk errors never interrupt the
// simulation — but the output has to warn that the run state is not
// durable instead of claiming anything resumable.
func TestCompletedRunWithDeadSnapshotDiskWarns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "run.ckpt")
	var out bytes.Buffer
	if err := run(failureArgs("-checkpoint", path), &out); err != nil {
		t.Fatalf("completed run must not fail on snapshot loss alone: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "WARNING: run state is not durable") {
		t.Errorf("missing durability warning:\n%s", got)
	}
	if strings.Contains(got, "rerun with -resume") {
		t.Errorf("dead-disk run must not claim resumability:\n%s", got)
	}
	if !strings.Contains(got, "mean reservations") {
		t.Errorf("aggregates missing despite completed run:\n%s", got)
	}
}
