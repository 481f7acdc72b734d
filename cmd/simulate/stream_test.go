package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"reskit"
	"reskit/cmd/internal/campaign"
)

// streamArgs is the fixed streaming campaign of the CLI tests: a
// stopping rule loose enough to fire quickly once the MinN guard lifts.
func streamArgs(extra ...string) []string {
	args := []string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "150", "-seed", "9",
		"-until-ci", "rel=0.02",
	}
	return append(args, extra...)
}

// restoredNote matches the ", N restored" annotation a resumed run adds
// to its trials line — the only legitimate output difference against an
// uninterrupted reference.
var restoredNote = regexp.MustCompile(`, \d+ restored`)

// streamResultLines reduces a streaming summary to its deterministic
// lines: everything except wall time (legitimately different across
// runs) and the resume/interrupted/checkpoint status lines, with the
// restored annotation normalized away.
func streamResultLines(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "wall time") || strings.HasPrefix(line, "resume:") ||
			strings.HasPrefix(line, "interrupted:") || strings.HasPrefix(line, "checkpoint:") {
			continue
		}
		keep = append(keep, restoredNote.ReplaceAllString(line, ""))
	}
	return strings.Join(keep, "\n")
}

func TestStreamFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"until-ci without campaign",
			[]string{"-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
				"-until-ci", "rel=0.01"},
			"-until-ci and -budget require -campaign"},
		{"budget without campaign",
			[]string{"-preempt", "-R", "10", "-ckpt", "exp:0.5@[1,5]", "-budget", "100"},
			"-until-ci and -budget require -campaign"},
		{"streaming with faultsweep",
			streamArgs("-faultsweep", "25,50"),
			"incompatible with -faultsweep"},
		{"streaming with keep-going",
			streamArgs("-keep-going"),
			"-keep-going is incompatible with streaming"},
		{"bad stop spec",
			append(streamArgs()[:len(streamArgs())-2:len(streamArgs())-2], "-until-ci", "speed=11"),
			"-until-ci: stats: unknown key"},
		{"unknown target",
			streamArgs("-target", "latency"),
			`unknown stream target "latency"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestStreamWorkerInvariance: the same streaming run with 1 and 8
// workers must stop at the identical trial count with bit-identical
// aggregates — the printed summaries differ only in wall time.
func TestStreamWorkerInvariance(t *testing.T) {
	var want string
	for _, w := range []int{1, 8} {
		var out bytes.Buffer
		if err := run(streamArgs("-workers", fmt.Sprint(w)), &out); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !strings.Contains(out.String(), "ci target met") {
			t.Fatalf("workers=%d: rule did not fire:\n%s", w, out.String())
		}
		got := streamResultLines(out.String())
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: output differs from workers=1:\n got:\n%s\nwant:\n%s", w, got, want)
		}
	}
}

// TestStreamBudgetExhausted: without a stopping rule the budget bounds
// the stream (rounded up to whole blocks) and the summary carries the
// stop reason.
func TestStreamBudgetExhausted(t *testing.T) {
	args := []string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "150", "-seed", "9",
		"-budget", "100",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	budgetTrials := reskit.StreamBlocks(100) * reskit.StreamBlockTrials
	for _, want := range []string{
		fmt.Sprintf("budget: %d trials (%d blocks)", budgetTrials, reskit.StreamBlocks(100)),
		fmt.Sprintf("%d (%d blocks)", budgetTrials, reskit.StreamBlocks(100)),
		"trial budget exhausted",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// soakStreamArgs is the longer-running rule of the kill-and-resume soak:
// enough trials past the MinN guard that SIGINT reliably lands mid-run.
func soakStreamArgs() []string {
	return []string{
		"-campaign", "-R", "29", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]",
		"-recovery", "1.5", "-totalwork", "150", "-seed", "11",
		"-until-ci", "rel=0.0004", "-target", "util",
	}
}

// TestStreamSoakSigintResume is the acceptance soak of the streaming
// engine (make stream-soak): the real binary runs an -until-ci campaign
// to a checkpointed frontier, receives SIGINT mid-stream, exits with the
// interrupted code leaving a valid frontier snapshot, and resuming with
// 1, 4 or 8 workers stops at the same trial count with bit-identical
// aggregates.
func TestStreamSoakSigintResume(t *testing.T) {
	path := os.Getenv("SIMULATE_STREAM_CKPT")
	if os.Getenv("SIMULATE_REEXEC") == "1" && path != "" {
		os.Args = append([]string{"simulate"},
			append(soakStreamArgs(), "-checkpoint", path, "-checkpoint-interval", "1ms")...)
		main()
		t.Fatal("main returned instead of exiting") // unreachable on success
	}

	path = filepath.Join(t.TempDir(), "stream.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run", "TestStreamSoakSigintResume")
	cmd.Env = append(os.Environ(), "SIMULATE_REEXEC=1", "SIMULATE_STREAM_CKPT="+path)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	code := sigintAndWait(t, cmd, path, &out)
	if code == 0 {
		t.Skipf("stream finished before SIGINT landed; nothing to resume (output %q)", out.String())
	}
	if code != campaign.ExitInterrupted {
		t.Fatalf("exit code = %d, want %d (output %q)", code, campaign.ExitInterrupted, out.String())
	}
	if !strings.Contains(out.String(), "rerun with -resume") {
		t.Errorf("interrupted stream should point at -resume, got %q", out.String())
	}
	st, err := reskit.LoadRunState(path)
	if err != nil {
		t.Fatalf("frontier snapshot left by SIGINT is unusable: %v", err)
	}
	if st.Frontier == 0 {
		t.Fatal("snapshot recorded no committed frontier")
	}

	var ref bytes.Buffer
	if err := run(soakStreamArgs(), &ref); err != nil {
		t.Fatal(err)
	}
	want := streamResultLines(ref.String())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 8} {
		copyPath := path + fmt.Sprintf(".w%d", w)
		if err := os.WriteFile(copyPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var resumed bytes.Buffer
		full := append(soakStreamArgs(), "-checkpoint", copyPath, "-resume", "-workers", fmt.Sprint(w))
		if err := run(full, &resumed); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !strings.Contains(resumed.String(), "resume: restoring stream frontier") {
			t.Errorf("workers=%d: resume did not restore the frontier: %q", w, resumed.String())
		}
		if got := streamResultLines(resumed.String()); got != want {
			t.Errorf("workers=%d: resumed output differs from uninterrupted run:\n got:\n%s\nwant:\n%s", w, got, want)
		}
		if _, err := os.Stat(copyPath); !os.IsNotExist(err) {
			t.Errorf("workers=%d: snapshot should be removed after the stop (stat err %v)", w, err)
		}
	}
}
