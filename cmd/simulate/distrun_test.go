package main

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"reskit/cmd/internal/campaign"
	"reskit/internal/distrun"
	"reskit/internal/engine"
	"reskit/internal/rng"
)

// TestCoordinatorSnapshotResumesInSimulate interrupts a distrun
// coordinator that serves the campaign grid of cmd/distrun's flags, then
// finishes the run from its snapshot with `simulate -campaign -resume`.
// The resume must restore the coordinator's jobs and print the aggregate
// of an uninterrupted simulate run, which holds only while both commands
// take the grid and the fingerprint from campaign.Flags.
func TestCoordinatorSnapshotResumesInSimulate(t *testing.T) {
	args := []string{
		"-R", "60", "-task", "exp:0.05", "-ckpt", "uniform:1,3",
		"-totalwork", "120", "-trials", "1280", "-seed", "7",
	}
	var cf campaign.Flags
	fs := flag.NewFlagSet("distrun", flag.ContinueOnError)
	cf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	law, plan, err := cf.Parse()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := cf.Config(law, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := cf.Grid(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator leases one job at a time; the worker computes the
	// first `stopAt` jobs and then parks on the next until it is stopped,
	// so the coordinator is interrupted with exactly stopAt jobs done.
	const stopAt = 10
	path := filepath.Join(t.TempDir(), "run.ckpt")
	co, err := distrun.NewCoordinator(distrun.CoordinatorConfig{
		NumJobs: grid.NumJobs(), Seed: cf.Seed, Fingerprint: cf.Fingerprint(plan),
		Checkpoint: engine.Checkpoint{Path: path, Interval: time.Millisecond},
		Check:      grid.Check, JobName: grid.JobName, MaxLease: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- distrun.RunWorker(wctx, distrun.WorkerConfig{
			URL: srv.URL, NumJobs: grid.NumJobs(), Seed: cf.Seed, Fingerprint: cf.Fingerprint(plan), Workers: 1,
			Job: func(i int) engine.Job {
				j := grid.Job(i)
				if i >= stopAt {
					j.Run = func(ctx context.Context, _ *rng.Source) (engine.JobResult, error) {
						<-ctx.Done()
						return engine.JobResult{}, ctx.Err()
					}
				}
				return j
			},
		})
	}()
	cctx, interrupt := context.WithCancel(context.Background())
	for deadline := time.Now().Add(30 * time.Second); co.Stats().Done < stopAt; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator reached %d/%d jobs within 30s", co.Stats().Done, stopAt)
		}
	}
	interrupt()
	if res, err := co.Wait(cctx); err == nil || res.Done() != stopAt {
		t.Fatalf("interrupted coordinator: err = %v, want an interruption with %d jobs done", err, stopAt)
	}
	stopWorker()
	<-workerDone

	var ref, resumed bytes.Buffer
	if err := run(append([]string{"-campaign"}, args...), &ref); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-campaign", "-checkpoint", path, "-resume"}, args...), &resumed); err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`resume: restoring (\d+)/`).FindStringSubmatch(resumed.String()); m == nil || m[1] != "10" {
		t.Errorf("resume did not restore the coordinator's %d jobs:\n%s", stopAt, resumed.String())
	}
	if got, want := campaignResultLines(resumed.String()), campaignResultLines(ref.String()); got != want || got == "" {
		t.Errorf("resumed aggregates differ from an uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}
