package main

import (
	"strings"
	"testing"
)

func TestPreemptMode(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-mode", "preempt", "-R", "10", "-ckpt", "uniform:1,7.5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"5.5", "uniform-closed-form", "interior", "1.246x"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPreemptBoundaryMessage(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-mode", "preempt", "-R", "10", "-ckpt", "uniform:1,5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pessimistic strategy is optimal") {
		t.Errorf("boundary case not flagged:\n%s", buf.String())
	}
}

func TestStaticMode(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-mode", "static", "-R", "30",
		"-task", "norm:3,0.5", "-ckpt", "norm:5,0.4@[0,inf]"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n_opt:    7 tasks") {
		t.Errorf("Fig 5 n_opt missing:\n%s", buf.String())
	}
}

func TestStaticDiscreteMode(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-mode", "static", "-R", "29",
		"-taskdisc", "poisson:3", "-ckpt", "norm:5,0.4@[0,inf]"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n_opt:    6 tasks") {
		t.Errorf("Fig 7 n_opt missing:\n%s", buf.String())
	}
}

func TestDynamicMode(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-mode", "dynamic", "-R", "29",
		"-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "W_int: 20.2") {
		t.Errorf("Fig 8 W_int missing:\n%s", buf.String())
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{"-mode", "preempt"},                                                                          // missing R and ckpt
		{"-mode", "preempt", "-R", "10"},                                                              // missing ckpt
		{"-mode", "preempt", "-R", "10", "-ckpt", "bogus:1"},                                          // bad law
		{"-mode", "static", "-R", "10", "-ckpt", "norm:5,0.4@[0,inf]"},                                // no task
		{"-mode", "weird", "-R", "10", "-ckpt", "uniform:1,2"},                                        // bad mode
		{"-mode", "preempt", "-R", "10", "-ckpt", "norm:5,0.4"},                                       // infinite support
		{"-mode", "static", "-R", "10", "-task", "norm:3,0.5@[0,inf]", "-ckpt", "norm:5,0.4@[0,inf]"}, // not summable
		{"-mode", "dynamic", "-R", "10", "-task", "det:1", "-ckpt", "det:0"},                          // point-mass task law
	}
	for i, args := range cases {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestMultiMode(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-mode", "multi", "-R", "30",
		"-task", "gamma:1,3", "-ckpt", "norm:1,0.15@[0,inf]"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "single checkpoint") || !strings.Contains(out, "repeated checkpoints") {
		t.Errorf("multi output:\n%s", out)
	}
	if err := run([]string{"-mode", "multi", "-R", "30", "-ckpt", "norm:1,0.15@[0,inf]"}, &buf); err == nil {
		t.Errorf("multi without -task must fail")
	}
}
