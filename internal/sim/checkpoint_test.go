package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"reskit/internal/ckpt"
	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/engine"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// TestRestoreRejectsMalformedPayload checks every block validator on the
// engine's restore path: a snapshot payload that passed the CRC but does
// not parse as the job's block aggregate aborts engine.Run with an error
// naming the job, before any block runs, instead of panicking or merging
// wrong numbers.
func TestRestoreRejectsMalformedPayload(t *testing.T) {
	res := fig8Config(strategy.NewStatic(4))
	camp := faultyCampaignConfig(nil)
	pre := core.NewPreemptible(10, dist.NewUniform(1, 7.5))
	cases := []struct {
		name   string
		trials int
		block  func(ctx context.Context, trials, b int, src *rng.Source) ([]byte, error)
		check  func([]byte) error
		bad    []byte
	}{
		{"montecarlo/size", 2 * mcBlockSize,
			func(ctx context.Context, trials, b int, src *rng.Source) ([]byte, error) {
				return MonteCarloBlockPayload(ctx, res, trials, b, false, src)
			},
			CheckMonteCarloPayload, []byte("not an aggregate")},
		{"campaign/size", 2 * campaignBlockSize,
			func(ctx context.Context, trials, b int, src *rng.Source) ([]byte, error) {
				return CampaignBlockPayload(ctx, camp, trials, b, src)
			},
			CheckCampaignPayload, make([]byte, campaignPartialWireSize-1)},
		{"campaign/counts", 2 * campaignBlockSize,
			func(ctx context.Context, trials, b int, src *rng.Source) ([]byte, error) {
				return CampaignBlockPayload(ctx, camp, trials, b, src)
			},
			CheckCampaignPayload, encodeCampaignPartial(&campaignPartial{completed: 5, trials: 3})},
		{"preemptible/size", 2 * mcBlockSize,
			func(ctx context.Context, trials, b int, src *rng.Source) ([]byte, error) {
				return PreemptibleBlockPayload(ctx, pre, 4, false, trials, b, src)
			},
			CheckPreemptiblePayload, make([]byte, preemptPartialWireSize+1)},
		{"preemptible/counts", 2 * mcBlockSize,
			func(ctx context.Context, trials, b int, src *rng.Source) ([]byte, error) {
				return PreemptibleBlockPayload(ctx, pre, 4, false, trials, b, src)
			},
			CheckPreemptiblePayload, encodePreemptPartial(&preemptPartial{successes: 4, trials: 3})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, fp = 5, 0xb10c
			path := filepath.Join(t.TempDir(), "run.ckpt")
			st := ckpt.New(fp, seed, 2)
			st.Records[1] = tc.bad
			if err := st.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			jobs := make([]engine.Job, 2)
			for b := range jobs {
				b := b
				jobs[b] = engine.Job{
					Name:   fmt.Sprintf("block%d", b),
					Stream: uint64(b),
					Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
						data, err := tc.block(ctx, tc.trials, b, src)
						return engine.JobResult{Payload: data}, err
					},
				}
			}
			run, err := engine.Run(context.Background(), engine.Spec{
				Jobs: jobs, Seed: seed, Fingerprint: fp, Workers: 1,
				Checkpoint: engine.Checkpoint{Path: path, Resume: true},
				Check:      func(_ int, data []byte) error { return tc.check(data) },
			})
			if err == nil || !strings.Contains(err.Error(), "job 1 (block1)") {
				t.Fatalf("err = %v, want a restore error naming job 1 (block1)", err)
			}
			if run.Fresh != 0 {
				t.Errorf("%d blocks ran before the restore check", run.Fresh)
			}
			// The validator accepts the block's genuine payload.
			good, err := tc.block(context.Background(), tc.trials, 1, rng.NewStream(seed, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.check(good); err != nil {
				t.Errorf("genuine payload rejected: %v", err)
			}
		})
	}
}

// TestAggregateWireRoundTrip pins the bit-exactness of the block payload
// codecs themselves.
func TestAggregateWireRoundTrip(t *testing.T) {
	cfg := fig8Config(strategy.NewStatic(4))
	agg := MonteCarlo(cfg, 500, 3, 0)
	agg.FailedRuns, agg.RevokedRuns = 7, 1 // exercise the int tallies

	var got Aggregate
	if err := decodeAggregate(encodeAggregate(&agg), &got); err != nil {
		t.Fatal(err)
	}
	if got != agg {
		t.Errorf("aggregate round trip differs:\n got %+v\nwant %+v", got, agg)
	}
	if err := decodeAggregate(make([]byte, aggregateWireSize+1), &got); err == nil {
		t.Error("oversized aggregate payload accepted")
	}

	p := campaignPartial{res: 1.5, util: 0.25, lost: 3.75, ckptFaults: 2, crashes: 1, revoked: 4, completed: 30, trials: 32}
	var gp campaignPartial
	if err := decodeCampaignPartial(encodeCampaignPartial(&p), &gp); err != nil {
		t.Fatal(err)
	}
	if gp != p {
		t.Errorf("campaign partial round trip differs: got %+v, want %+v", gp, p)
	}
	bad := encodeCampaignPartial(&campaignPartial{completed: 5, trials: 3})
	if err := decodeCampaignPartial(bad, &gp); err == nil {
		t.Error("completed > trials accepted")
	}
}
