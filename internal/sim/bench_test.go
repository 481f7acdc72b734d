package sim

import (
	"math"
	"testing"

	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// The benchmarks below measure one worker processing blocks in steady
// state — exactly the per-block loop of the Monte-Carlo runners, with
// the per-worker Source reinitialized in place. They run with
// b.ReportAllocs so allocation regressions on the block path are
// visible in plain `go test -bench . -benchmem` output; the companion
// TestZeroSteadyStateAllocsPerBlock pins the zero-alloc property.

var benchAggSink Aggregate
var benchPreemptSink preemptPartial
var benchCampSink campaignPartial

func benchPreemptTrialFn() func(*rng.Source) (float64, bool) {
	p := core.NewPreemptible(3600, dist.Truncate(dist.NewNormal(300, 30), 60, 600))
	return preemptTrial(p, 360, false)
}

func BenchmarkPreemptBlock(b *testing.B) {
	trial := benchPreemptTrialFn()
	var src rng.Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reinit(7, uint64(i))
		benchPreemptSink, _ = runPreemptBlock(trial, mcBlockSize, 0, &src, nil)
	}
	b.ReportMetric(mcBlockSize, "trials/op")
}

func BenchmarkMCBlockStatic(b *testing.B) {
	cfg := fig8Config(strategy.NewStatic(7))
	var src rng.Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reinit(7, uint64(i))
		benchAggSink, _ = runMCBlock(cfg, mcBlockSize, 0, &src, false, nil)
	}
	b.ReportMetric(mcBlockSize, "trials/op")
}

func BenchmarkMCBlockDynamic(b *testing.B) {
	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	cfg := fig8Config(strategy.NewDynamic(dyn))
	var src rng.Source
	src.Reinit(7, 0)
	// Build the coefficient table outside the timed region.
	benchAggSink, _ = runMCBlock(cfg, mcBlockSize, 0, &src, false, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reinit(7, uint64(i))
		benchAggSink, _ = runMCBlock(cfg, mcBlockSize, 0, &src, false, nil)
	}
	b.ReportMetric(mcBlockSize, "trials/op")
}

func BenchmarkMCBlockOracle(b *testing.B) {
	cfg := fig8Config(strategy.Never{})
	var src rng.Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reinit(7, uint64(i))
		benchAggSink, _ = runMCBlock(cfg, mcBlockSize, 0, &src, true, nil)
	}
	b.ReportMetric(mcBlockSize, "trials/op")
}

func benchCampaignConfig(task, ckpt dist.Continuous, dynR float64) CampaignConfig {
	dyn := core.NewDynamic(dynR, task, ckpt)
	return CampaignConfig{
		Reservation: Config{
			R:        dynR,
			Task:     task,
			Ckpt:     ckpt,
			Recovery: 2,
			Strategy: strategy.NewDynamic(dyn),
		},
		TotalWork: 40,
	}
}

func BenchmarkCampaignBlockDynamicNorm(b *testing.B) {
	cfg := benchCampaignConfig(paperTask(), paperCkpt(5, 0.4), 29)
	var src rng.Source
	src.Reinit(7, 0)
	benchCampSink, _ = runCampaignBlock(cfg, campaignBlockSize, 0, &src, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reinit(7, uint64(i))
		benchCampSink, _ = runCampaignBlock(cfg, campaignBlockSize, 0, &src, nil)
	}
	b.ReportMetric(campaignBlockSize, "trials/op")
}

func BenchmarkCampaignBlockDynamicGamma(b *testing.B) {
	task := dist.Truncate(dist.NewGamma(6, 0.5), 0, math.Inf(1))
	cfg := benchCampaignConfig(task, paperCkpt(5, 0.4), 29)
	var src rng.Source
	src.Reinit(7, 0)
	benchCampSink, _ = runCampaignBlock(cfg, campaignBlockSize, 0, &src, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reinit(7, uint64(i))
		benchCampSink, _ = runCampaignBlock(cfg, campaignBlockSize, 0, &src, nil)
	}
	b.ReportMetric(campaignBlockSize, "trials/op")
}

// TestZeroSteadyStateAllocsPerBlock pins the acceptance criterion that
// the preempt and workflow (strategy-driven reservation) block paths
// allocate nothing per block once warm. The sync.Pool-backed oracle
// scratch can be dropped by a GC between runs, so the thresholds allow
// a fractional average rather than demanding a literal zero.
func TestZeroSteadyStateAllocsPerBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short runners")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under -race; steady-state alloc counts do not hold")
	}
	var src rng.Source

	trial := benchPreemptTrialFn()
	src.Reinit(7, 0)
	runPreemptBlock(trial, mcBlockSize, 0, &src, nil)
	preemptAllocs := testing.AllocsPerRun(10, func() {
		src.Reinit(7, 0)
		runPreemptBlock(trial, mcBlockSize, 0, &src, nil)
	})
	if preemptAllocs > 0.5 {
		t.Errorf("preempt block: %.1f allocs/block in steady state, want 0", preemptAllocs)
	}

	dyn := core.NewDynamic(29, paperTask(), paperCkpt(5, 0.4))
	cfg := fig8Config(strategy.NewDynamic(dyn))
	src.Reinit(7, 0)
	runMCBlock(cfg, mcBlockSize, 0, &src, false, nil)
	mcAllocs := testing.AllocsPerRun(10, func() {
		src.Reinit(7, 0)
		runMCBlock(cfg, mcBlockSize, 0, &src, false, nil)
	})
	if mcAllocs > 0.5 {
		t.Errorf("dynamic MC block: %.1f allocs/block in steady state, want 0", mcAllocs)
	}

	src.Reinit(7, 0)
	runMCBlock(cfg, mcBlockSize, 0, &src, true, nil)
	oracleAllocs := testing.AllocsPerRun(10, func() {
		src.Reinit(7, 0)
		runMCBlock(cfg, mcBlockSize, 0, &src, true, nil)
	})
	// 2048 trials/block, two pooled slices per trial before pooling;
	// a handful of pool refills per block is still a ~1000x reduction.
	if oracleAllocs > 64 {
		t.Errorf("oracle MC block: %.1f allocs/block in steady state, want ~0", oracleAllocs)
	}

	// The campaign block of the e2ebench workloads: R 29, recovery 1.5,
	// 500 units of total work, normal and gamma tasks.
	for _, task := range []dist.Continuous{paperTask(), dist.Truncate(dist.NewGamma(6, 0.5), 0, math.Inf(1))} {
		camp := benchCampaignConfig(task, paperCkpt(5, 0.4), 29)
		camp.Reservation.Recovery = 1.5
		camp.TotalWork = 500
		src.Reinit(7, 0)
		runCampaignBlock(camp, campaignBlockSize, 0, &src, nil)
		campAllocs := testing.AllocsPerRun(10, func() {
			src.Reinit(7, 0)
			runCampaignBlock(camp, campaignBlockSize, 0, &src, nil)
		})
		if campAllocs != 0 {
			t.Errorf("campaign block (%v tasks): %.1f allocs/block in steady state, want 0", task, campAllocs)
		}
	}
}
