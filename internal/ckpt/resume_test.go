package ckpt_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"reskit/internal/ckpt"
	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/engine"
	"reskit/internal/rng"
	"reskit/internal/sim"
	"reskit/internal/strategy"
)

func testCampaignConfig() sim.CampaignConfig {
	task := dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
	ckptLaw := dist.Truncate(dist.NewNormal(5, 0.4), 0, math.Inf(1))
	dyn := core.NewDynamic(29, task, ckptLaw)
	return sim.CampaignConfig{
		Reservation: sim.Config{
			R:        29,
			Recovery: 1.5,
			Task:     task,
			Ckpt:     ckptLaw,
			Strategy: strategy.NewDynamic(dyn),
		},
		TotalWork: 150,
	}
}

// cancelAfter wraps jobs so the run is cancelled as soon as k of them
// have completed — a kill at a block boundary, while the real on-disk
// snapshot machinery runs underneath.
func cancelAfter(jobs []engine.Job, k int64, cancel context.CancelFunc) []engine.Job {
	var done atomic.Int64
	out := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		run := j.Run
		j.Run = func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			jr, err := run(ctx, src)
			if err == nil && done.Add(1) == k {
				cancel()
			}
			return jr, err
		}
		out[i] = j
	}
	return out
}

// TestDiskKillAndResumeBitIdentical is the full acceptance loop of a
// durable campaign through the disk: the engine runs the campaign's
// block grid with a snapshot written on every commit and is
// killed after two completed blocks; the snapshot is loaded and
// validated from disk; the resumed run checks every restored payload
// and re-runs only the missing blocks. The merged aggregate must be
// bit-identical to an uninterrupted MonteCarloCampaign and the snapshot
// removed on completion — across worker counts 1, 4 and 8 (run under
// -race in CI).
func TestDiskKillAndResumeBitIdentical(t *testing.T) {
	cfg := testCampaignConfig()
	const trials = 137 // five campaign blocks, the last one ragged
	const seed = 77
	fp := ckpt.Fingerprint("test-campaign", "R=29", "totalwork=150")
	want := sim.MonteCarloCampaign(cfg, trials, seed, 0)
	grid := sim.CampaignGrid(cfg, trials)
	n := int64(grid.NumJobs())

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		spec := engine.Spec{
			Jobs:        grid.Jobs(),
			Seed:        seed,
			Fingerprint: fp,
			Workers:     workers,
			Checkpoint:  engine.Checkpoint{Path: path, Interval: time.Nanosecond},
			Check:       grid.Check,
		}

		// Interrupted leg: cancel once two blocks have completed.
		ctx, cancel := context.WithCancel(context.Background())
		killed := spec
		killed.Jobs = cancelAfter(spec.Jobs, 2, cancel)
		_, err := engine.Run(ctx, killed)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: interrupted run: err = %v, want context.Canceled", workers, err)
		}

		// The snapshot on disk is this run's, with the killed blocks.
		loaded, err := ckpt.Load(path)
		if err != nil {
			t.Fatalf("workers=%d: loading snapshot: %v", workers, err)
		}
		if err := loaded.Check(fp, seed, n); err != nil {
			t.Fatalf("workers=%d: snapshot mismatch: %v", workers, err)
		}
		if loaded.Done() < 2 {
			t.Fatalf("workers=%d: snapshot recorded %d blocks, want >= 2", workers, loaded.Done())
		}

		// Resume leg: restore, check and merge the recorded blocks, run
		// only the missing ones.
		spec.Checkpoint.Resume = true
		res, err := engine.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if res.Restored != loaded.Done() || res.Done() != int(n) {
			t.Errorf("workers=%d: resume restored %d and finished %d of %d blocks, want %d restored",
				workers, res.Restored, res.Done(), n, loaded.Done())
		}
		got, err := sim.MergeCampaignPayloads(res.Payloads)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: resumed aggregate differs:\n got %+v\nwant %+v", workers, got, want)
		}
		for _, p := range []string{path, ckpt.PrevGeneration(path)} {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("workers=%d: %s left behind after completion (stat err %v)", workers, p, err)
			}
		}
	}
}

// TestResumeRejectsForeignSnapshot checks the config-fingerprint gate:
// a snapshot of a different configuration must be refused with a
// structured mismatch error before any block is trusted.
func TestResumeRejectsForeignSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := ckpt.New(ckpt.Fingerprint("totalwork=150"), 1, 5)
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	err = loaded.Check(ckpt.Fingerprint("totalwork=500"), 1, 5)
	if !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("foreign snapshot: err = %v, want ErrMismatch", err)
	}
}

// TestLoadCorruptSnapshotFile checks the disk path end to end: a
// truncated snapshot file yields a structured error, never a panic.
func TestLoadCorruptSnapshotFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := ckpt.New(9, 1, 2)
	st.Records[0] = make([]byte, 312)
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Load(path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("truncated file: err = %v, want ErrCorrupt", err)
	}
}
