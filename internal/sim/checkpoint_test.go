package sim

import (
	"context"
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

// TestRestoreRejectsMalformedPayload checks every grid kind's payload
// validator on the engine's restore path: a snapshot payload that passed
// the CRC but does not parse as the job's block aggregate aborts
// engine.Run with an error naming the job, before any block runs,
// instead of panicking or merging wrong numbers.
func TestRestoreRejectsMalformedPayload(t *testing.T) {
	res := ReservationGrid(2*mcBlockSize, ReservationRow{Cfg: fig8Config(strategy.NewStatic(4))})
	camp := CampaignGrid(faultyCampaignConfig(nil), 2*campaignBlockSize)
	pre := PreemptibleGrid(2*mcBlockSize, PreemptibleRow{P: core.NewPreemptible(10, dist.NewUniform(1, 7.5)), X: 4})
	cases := []struct {
		name string
		grid *Grid
		bad  []byte
	}{
		{"montecarlo/size", res, []byte("not an aggregate")},
		{"campaign/size", camp, make([]byte, campaignPartialWireSize-1)},
		{"campaign/counts", camp, encodeCampaignPartial(&campaignPartial{completed: 5, trials: 3})},
		{"preemptible/size", pre, make([]byte, preemptPartialWireSize+1)},
		{"preemptible/counts", pre, encodePreemptPartial(&preemptPartial{successes: 4, trials: 3})},
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
			run, err := engine.Run(context.Background(), engine.Spec{
				Jobs: tc.grid.Jobs(), Seed: seed, Fingerprint: fp, Workers: 1,
				Checkpoint: engine.Checkpoint{Path: path, Resume: true},
				Check:      tc.grid.Check,
			})
			if err == nil || !strings.Contains(err.Error(), "job 1 (block1)") {
				t.Fatalf("err = %v, want a restore error naming job 1 (block1)", err)
			}
			if run.Fresh != 0 {
				t.Errorf("%d blocks ran before the restore check", run.Fresh)
			}
			// The validator accepts the block's genuine payload.
			good, err := tc.grid.Job(1).Run(context.Background(), rng.NewStream(seed, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.grid.Check(1, good.Payload); err != nil {
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
