package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"reskit/internal/core"
	"reskit/internal/rng"
	"reskit/internal/stats"
)

// Monte-Carlo blocks as engine jobs. A run of `trials` trials is a fixed
// grid of blocks: block b always simulates trials [b*blockSize, ...) on
// rng substream b. The MonteCarlo* calls drain that grid through
// engine.RunStream and merge typed partials in memory (runBlocks);
// callers that need durable or distributed runs build one engine job
// per block instead, where each *BlockPayload function runs exactly one
// block on a caller-provided source and returns the block's partial
// aggregate as bit-exact opaque bytes. Merging payloads in block order
// (Merge*Payloads) reproduces the corresponding MonteCarlo* aggregate
// bit-identically — for any schedule, any worker count, and any mix of
// restored and recomputed blocks. A block is the unit of durability:
// engine.Run records the payload of every completed block in its
// snapshot, and a resume re-runs only the missing ones.

// NumMonteCarloBlocks returns the block-grid size of the
// per-reservation runners (MonteCarlo*, MonteCarloPreemptible*).
func NumMonteCarloBlocks(trials int) int {
	if trials <= 0 {
		return 0
	}
	return (trials + mcBlockSize - 1) / mcBlockSize
}

// NumCampaignBlocks returns the block-grid size of the campaign
// runners (MonteCarloCampaign*), which is also the job cap
// (engine.StreamSpec.MaxJobs) of a campaign stream with that trial
// budget: streamed blocks are all-or-nothing, so a budget rounds up.
func NumCampaignBlocks(trials int) int {
	if trials <= 0 {
		return 0
	}
	return (trials + campaignBlockSize - 1) / campaignBlockSize
}

// MonteCarloBlockPayload runs block `block` of a per-reservation
// Monte-Carlo (RunOracle when oracle is set, Run otherwise) on src —
// which must be rng.NewStream(seed, block) for the canonical result —
// and returns the encoded block aggregate. When ctx is cancelled
// mid-block the partial tallies are discarded and ctx.Err() returned:
// a block is all-or-nothing, so it can be re-run on resume.
func MonteCarloBlockPayload(ctx context.Context, cfg Config, trials, block int, oracle bool, src *rng.Source) ([]byte, error) {
	cfg.validate()
	if err := checkBlock(trials, block, NumMonteCarloBlocks(trials)); err != nil {
		return nil, err
	}
	agg, complete := runMCBlock(cfg, trials, block, src, oracle, ctx.Done())
	if !complete {
		return nil, interruptErr(ctx)
	}
	return encodeAggregate(&agg), nil
}

// MergeMonteCarloPayloads folds block payloads, in block order, into
// the aggregate. Nil entries (blocks that never ran) are skipped, so a
// partial run merges to the exact aggregate of its completed blocks.
func MergeMonteCarloPayloads(payloads [][]byte) (Aggregate, error) {
	var total Aggregate
	for b, data := range payloads {
		if data == nil {
			continue
		}
		var a Aggregate
		if err := decodeAggregate(data, &a); err != nil {
			return Aggregate{}, fmt.Errorf("sim: block %d: %w", b, err)
		}
		total.merge(a)
	}
	return total, nil
}

// CheckMonteCarloPayload reports whether data parses as a Monte-Carlo
// block payload, without keeping the result.
func CheckMonteCarloPayload(data []byte) error {
	var a Aggregate
	return decodeAggregate(data, &a)
}

// CampaignBlockPayload runs block `block` of a campaign Monte-Carlo on
// src (rng.NewStream(seed, block) for the canonical result) and returns
// the encoded block sums, under the same all-or-nothing cancellation
// contract as MonteCarloBlockPayload.
func CampaignBlockPayload(ctx context.Context, cfg CampaignConfig, trials, block int, src *rng.Source) ([]byte, error) {
	cfg.validate()
	if err := checkBlock(trials, block, NumCampaignBlocks(trials)); err != nil {
		return nil, err
	}
	p, complete := runCampaignBlock(cfg, trials, block, src, ctx.Done())
	if !complete {
		return nil, interruptErr(ctx)
	}
	return encodeCampaignPartial(&p), nil
}

// MergeCampaignPayloads folds campaign block payloads, in block order,
// into the mean aggregate; nil entries are skipped.
func MergeCampaignPayloads(payloads [][]byte) (CampaignAggregate, error) {
	var sum campaignPartial
	for b, data := range payloads {
		if data == nil {
			continue
		}
		var p campaignPartial
		if err := decodeCampaignPartial(data, &p); err != nil {
			return CampaignAggregate{}, fmt.Errorf("sim: block %d: %w", b, err)
		}
		sum.add(p)
	}
	return sum.aggregate(), nil
}

// CheckCampaignPayload reports whether data parses as a campaign block
// payload, without keeping the result.
func CheckCampaignPayload(data []byte) error {
	var p campaignPartial
	return decodeCampaignPartial(data, &p)
}

// PreemptibleBlockPayload runs block `block` of a preemptible-scenario
// Monte-Carlo — the fixed lead-time x policy, or the clairvoyant one
// when oracle is set — on src (rng.NewStream(seed, block) for the
// canonical result), under the same all-or-nothing cancellation
// contract as MonteCarloBlockPayload.
func PreemptibleBlockPayload(ctx context.Context, p *core.Preemptible, x float64, oracle bool, trials, block int, src *rng.Source) ([]byte, error) {
	if err := checkBlock(trials, block, NumMonteCarloBlocks(trials)); err != nil {
		return nil, err
	}
	part, complete := runPreemptBlock(preemptTrial(p, x, oracle), trials, block, src, ctx.Done())
	if !complete {
		return nil, interruptErr(ctx)
	}
	return encodePreemptPartial(&part), nil
}

// MergePreemptiblePayloads folds preemptible block payloads, in block
// order, into the aggregate; nil entries are skipped.
func MergePreemptiblePayloads(payloads [][]byte) (PreemptibleAggregate, error) {
	var agg PreemptibleAggregate
	for b, data := range payloads {
		if data == nil {
			continue
		}
		var p preemptPartial
		if err := decodePreemptPartial(data, &p); err != nil {
			return PreemptibleAggregate{}, fmt.Errorf("sim: block %d: %w", b, err)
		}
		agg.merge(&p)
	}
	return agg, nil
}

// CheckPreemptiblePayload reports whether data parses as a preemptible
// block payload, without keeping the result.
func CheckPreemptiblePayload(data []byte) error {
	var p preemptPartial
	return decodePreemptPartial(data, &p)
}

// aggregateWireSize is the exact encoded size of an Aggregate: seven
// summaries plus four int64 tallies.
const aggregateWireSize = 7*stats.SummaryWireSize + 4*8

// encodeAggregate serializes one block's aggregate bit-exactly (floats
// as IEEE-754 bit patterns, little-endian).
func encodeAggregate(a *Aggregate) []byte {
	b := make([]byte, 0, aggregateWireSize)
	b = a.Saved.AppendBinary(b)
	b = a.Lost.AppendBinary(b)
	b = a.Tasks.AppendBinary(b)
	b = a.Checkpoints.AppendBinary(b)
	b = a.Failures.AppendBinary(b)
	b = a.CkptFaults.AppendBinary(b)
	b = a.TimeUsed.AppendBinary(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(a.FailedRuns))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.RevokedRuns))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.ZeroRuns))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.Trials))
	return b
}

// decodeAggregate restores one block's aggregate from its wire image.
func decodeAggregate(data []byte, a *Aggregate) error {
	if len(data) != aggregateWireSize {
		return fmt.Errorf("sim: aggregate payload is %d bytes, want %d", len(data), aggregateWireSize)
	}
	off := 0
	for _, s := range []*stats.Summary{
		&a.Saved, &a.Lost, &a.Tasks, &a.Checkpoints, &a.Failures, &a.CkptFaults, &a.TimeUsed,
	} {
		if err := s.UnmarshalBinary(data[off : off+stats.SummaryWireSize]); err != nil {
			return err
		}
		off += stats.SummaryWireSize
	}
	a.FailedRuns = int64(binary.LittleEndian.Uint64(data[off:]))
	a.RevokedRuns = int64(binary.LittleEndian.Uint64(data[off+8:]))
	a.ZeroRuns = int64(binary.LittleEndian.Uint64(data[off+16:]))
	a.Trials = int64(binary.LittleEndian.Uint64(data[off+24:]))
	return nil
}

// campaignPartialWireSize is the exact encoded size of a
// campaignPartial: six float64 running sums plus two int64 counts.
const campaignPartialWireSize = 6*8 + 2*8

// encodeCampaignPartial serializes one block's campaign sums bit-exactly.
func encodeCampaignPartial(p *campaignPartial) []byte {
	b := make([]byte, 0, campaignPartialWireSize)
	for _, v := range []float64{p.res, p.util, p.lost, p.ckptFaults, p.crashes, p.revoked} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(p.completed))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.trials))
	return b
}

// decodeCampaignPartial restores one block's campaign sums.
func decodeCampaignPartial(data []byte, p *campaignPartial) error {
	if len(data) != campaignPartialWireSize {
		return fmt.Errorf("sim: campaign payload is %d bytes, want %d", len(data), campaignPartialWireSize)
	}
	for i, f := range []*float64{&p.res, &p.util, &p.lost, &p.ckptFaults, &p.crashes, &p.revoked} {
		*f = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	completed := int64(binary.LittleEndian.Uint64(data[48:]))
	trials := int64(binary.LittleEndian.Uint64(data[56:]))
	if completed < 0 || trials < 0 || completed > trials {
		return fmt.Errorf("sim: campaign payload counts inconsistent (completed=%d, trials=%d)", completed, trials)
	}
	p.completed = int(completed)
	p.trials = int(trials)
	return nil
}

// preemptPartialWireSize is the exact encoded size of a preemptPartial:
// one summary plus two int64 counts.
const preemptPartialWireSize = stats.SummaryWireSize + 2*8

// encodePreemptPartial serializes one block's preemptible sums
// bit-exactly.
func encodePreemptPartial(p *preemptPartial) []byte {
	b := make([]byte, 0, preemptPartialWireSize)
	b = p.work.AppendBinary(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.successes))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.trials))
	return b
}

// decodePreemptPartial restores one block's preemptible sums.
func decodePreemptPartial(data []byte, p *preemptPartial) error {
	if len(data) != preemptPartialWireSize {
		return fmt.Errorf("sim: preemptible payload is %d bytes, want %d", len(data), preemptPartialWireSize)
	}
	if err := p.work.UnmarshalBinary(data[:stats.SummaryWireSize]); err != nil {
		return err
	}
	p.successes = int64(binary.LittleEndian.Uint64(data[stats.SummaryWireSize:]))
	p.trials = int64(binary.LittleEndian.Uint64(data[stats.SummaryWireSize+8:]))
	if p.successes < 0 || p.trials < 0 || p.successes > p.trials {
		return fmt.Errorf("sim: preemptible payload counts inconsistent (successes=%d, trials=%d)", p.successes, p.trials)
	}
	return nil
}

// checkBlock validates the block index against the run geometry.
func checkBlock(trials, block, numBlocks int) error {
	if trials <= 0 {
		return fmt.Errorf("sim: block run needs positive trials, got %d", trials)
	}
	if block < 0 || block >= numBlocks {
		return fmt.Errorf("sim: block %d out of %d", block, numBlocks)
	}
	return nil
}

// interruptErr returns ctx's error, or context.Canceled when a block
// stopped without the context recording a cause.
func interruptErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}
