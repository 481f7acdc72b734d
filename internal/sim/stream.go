package sim

import (
	"context"
	"fmt"
	"math"

	"reskit/internal/engine"
	"reskit/internal/rng"
	"reskit/internal/stats"
)

// Streaming campaigns: instead of a fixed trial grid, the campaign runs
// as an open-ended stream of full blocks — block b always simulates
// trials [b*StreamBlockTrials, (b+1)*StreamBlockTrials) on rng
// substream b, exactly as the fixed grid would — drained by
// engine.RunStream until a sequential stopping rule (stats.StopSpec)
// fires or a trial budget runs out. Each block payload carries, besides
// the campaignPartial running sums, the second moments of the stop
// targets (utilization, lost work, reservations as stats.Summary) and a
// QSketch of per-trial utilization, so the sink can evaluate CI
// half-widths and quantile stability at every ordered block boundary.

// campaignStreamPartial is one streamed block's extended sums.
type campaignStreamPartial struct {
	sums             campaignPartial
	util, lost, rsum stats.Summary
	sketch           stats.QSketch // per-trial utilization
}

// runCampaignStreamBlock simulates the full block b on src and folds
// its running sums, summaries and sketch. There is no trial-count clamp:
// streamed blocks are always complete, the stream's end is the stopping
// rule's business.
func runCampaignStreamBlock(cfg CampaignConfig, b int, src *rng.Source, done <-chan struct{}) (p campaignStreamPartial, complete bool) {
	var rs [campaignBlockSize]CampaignResult
	if runCampaignTrials(cfg, b*campaignBlockSize, rs[:], src, done) < campaignBlockSize {
		return p, false
	}
	for i := range rs {
		r := &rs[i]
		u := r.Utilization()
		p.sums.addTrial(r)
		p.util.Add(u)
		p.lost.Add(r.LostWork)
		p.rsum.Add(float64(r.Reservations))
		p.sketch.Add(u)
	}
	return p, true
}

// campaignStreamFixedSize is the fixed prefix of a stream payload (and
// of the sink state, which swaps the trailing per-block summaries for
// the stopper state before the sketch).
const campaignStreamFixedSize = campaignPartialWireSize + 3*stats.SummaryWireSize

// encodeCampaignStreamPartial serializes one streamed block's sums
// bit-exactly; the variable-size sketch is the trailing field.
func encodeCampaignStreamPartial(p *campaignStreamPartial) []byte {
	b := make([]byte, 0, campaignStreamFixedSize+1024)
	b = append(b, encodeCampaignPartial(&p.sums)...)
	b = p.util.AppendBinary(b)
	b = p.lost.AppendBinary(b)
	b = p.rsum.AppendBinary(b)
	b = p.sketch.AppendBinary(b)
	return b
}

// decodeCampaignStreamPartial restores one streamed block's sums.
func decodeCampaignStreamPartial(data []byte, p *campaignStreamPartial) error {
	if len(data) < campaignStreamFixedSize {
		return fmt.Errorf("sim: stream payload is %d bytes, want at least %d", len(data), campaignStreamFixedSize)
	}
	if err := decodeCampaignPartial(data[:campaignPartialWireSize], &p.sums); err != nil {
		return err
	}
	off := campaignPartialWireSize
	for _, s := range []*stats.Summary{&p.util, &p.lost, &p.rsum} {
		if err := s.UnmarshalBinary(data[off : off+stats.SummaryWireSize]); err != nil {
			return err
		}
		off += stats.SummaryWireSize
	}
	return p.sketch.UnmarshalBinary(data[off:])
}

// CheckCampaignStreamPayload reports whether data parses as a streamed
// campaign block payload, without keeping the result.
func CheckCampaignStreamPayload(data []byte) error {
	var p campaignStreamPartial
	return decodeCampaignStreamPartial(data, &p)
}

// StreamTargets names the metrics a stopping rule may target.
var StreamTargets = []string{"lost", "res", "util"}

// CampaignStream is a streaming campaign: a lazy engine.JobSource of
// full trial blocks plus the ordered engine.StreamSink folding them and
// evaluating the stopping rule. Every sink method runs on the engine's
// single commit goroutine, so the aggregate — and the stop decision —
// is a pure function of the committed block prefix: identical for any
// worker count, and (because State/Restore round-trip every mutable
// field bit-exactly, the stopper's epoch memory included) identical
// across kill-and-resume.
type CampaignStream struct {
	cfg    CampaignConfig
	stop   stats.Stopper
	target string

	sums             campaignPartial
	util, lost, rsum stats.Summary
	sketch           stats.QSketch
}

// NewCampaignStream validates cfg and the stopping rule. target selects
// the summary the CI criterion watches — "util" (mean utilization, the
// default for an empty string), "lost" (mean lost work) or "res" (mean
// reservations). An inactive (zero) stop spec is allowed: the stream
// then runs until its trial budget.
func NewCampaignStream(cfg CampaignConfig, stop stats.StopSpec, target string) (*CampaignStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Only the zero spec may skip validation: a non-zero spec that still
	// cannot fire (rel=-1, or conf set without rel/abs) is a mistake the
	// user should hear about, not a silent never-stopping run.
	if stop != (stats.StopSpec{}) {
		if err := stop.Validate(); err != nil {
			return nil, err
		}
	}
	switch target {
	case "":
		target = "util"
	case "util", "lost", "res":
	default:
		return nil, fmt.Errorf("sim: unknown stream target %q (known: lost, res, util)", target)
	}
	return &CampaignStream{cfg: cfg, stop: stats.Stopper{Spec: stop}, target: target}, nil
}

// Source returns the lazy block source: job b runs the full block b on
// substream b. The source is unbounded — bound it with the engine's
// MaxJobs (NumCampaignBlocks converts a trial budget).
func (cs *CampaignStream) Source() engine.JobSource {
	next := 0
	cfg := cs.cfg
	return engine.SourceFunc(func() (engine.Job, bool) {
		b := next
		next++
		return engine.Job{
			Name:   fmt.Sprintf("block%d", b),
			Stream: uint64(b),
			Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
				p, complete := runCampaignStreamBlock(cfg, b, src, ctx.Done())
				if !complete {
					return engine.JobResult{}, interruptErr(ctx)
				}
				return engine.JobResult{Payload: encodeCampaignStreamPartial(&p)}, nil
			},
		}, true
	})
}

// StreamBlockTrials is the number of trials in one streamed block —
// the granularity budgets round up to and frontiers advance by.
const StreamBlockTrials = campaignBlockSize

// Commit folds block i and evaluates the stopping rule — the
// engine.StreamSink contract.
func (cs *CampaignStream) Commit(i int, payload []byte) (bool, error) {
	var p campaignStreamPartial
	if err := decodeCampaignStreamPartial(payload, &p); err != nil {
		return false, err
	}
	cs.sums.add(p.sums)
	cs.util.Merge(p.util)
	cs.lost.Merge(p.lost)
	cs.rsum.Merge(p.rsum)
	cs.sketch.Merge(&p.sketch)
	stop := cs.stop.Step(cs.TargetSummary(), &cs.sketch)
	if hw := cs.HalfWidth(); !math.IsNaN(hw) && !math.IsInf(hw, 0) {
		cs.cfg.Reservation.Obs.tickPrecision(hw)
	}
	return stop, nil
}

// State serializes the sink at the current frontier: the running sums,
// the three target summaries, the stopper's epoch memory, and the
// utilization sketch (trailing, variable size). Everything Commit
// mutates, bit for bit.
func (cs *CampaignStream) State() ([]byte, error) {
	b := make([]byte, 0, campaignStreamFixedSize+stats.StopperWireSize+4096)
	b = append(b, encodeCampaignPartial(&cs.sums)...)
	b = cs.util.AppendBinary(b)
	b = cs.lost.AppendBinary(b)
	b = cs.rsum.AppendBinary(b)
	b = cs.stop.AppendBinary(b)
	b = cs.sketch.AppendBinary(b)
	return b, nil
}

// Restore resets the sink to a state produced by State.
func (cs *CampaignStream) Restore(state []byte) error {
	const fixed = campaignStreamFixedSize + stats.StopperWireSize
	if len(state) < fixed {
		return fmt.Errorf("sim: stream sink state is %d bytes, want at least %d", len(state), fixed)
	}
	if err := decodeCampaignPartial(state[:campaignPartialWireSize], &cs.sums); err != nil {
		return err
	}
	off := campaignPartialWireSize
	for _, s := range []*stats.Summary{&cs.util, &cs.lost, &cs.rsum} {
		if err := s.UnmarshalBinary(state[off : off+stats.SummaryWireSize]); err != nil {
			return err
		}
		off += stats.SummaryWireSize
	}
	if err := cs.stop.UnmarshalBinary(state[off : off+stats.StopperWireSize]); err != nil {
		return err
	}
	off += stats.StopperWireSize
	return cs.sketch.UnmarshalBinary(state[off:])
}

// Trials returns the number of trials folded so far.
func (cs *CampaignStream) Trials() int { return cs.sums.trials }

// Aggregate returns the campaign aggregate of the folded trials.
func (cs *CampaignStream) Aggregate() CampaignAggregate { return cs.sums.aggregate() }

// Target returns the effective stop-target name.
func (cs *CampaignStream) Target() string { return cs.target }

// TargetSummary returns the running summary of the stop target.
func (cs *CampaignStream) TargetSummary() stats.Summary {
	switch cs.target {
	case "lost":
		return cs.lost
	case "res":
		return cs.rsum
	default:
		return cs.util
	}
}

// Summaries returns the running summaries of every stream target, for
// reporting: utilization, lost work, reservations.
func (cs *CampaignStream) Summaries() (util, lost, res stats.Summary) {
	return cs.util, cs.lost, cs.rsum
}

// HalfWidth returns the current CI half-width of the stop target at the
// rule's confidence level (+Inf with fewer than two trials).
func (cs *CampaignStream) HalfWidth() float64 {
	return cs.stop.Spec.HalfWidth(cs.TargetSummary())
}

// UtilizationQuantile estimates a quantile of the per-trial utilization
// distribution from the stream's sketch.
func (cs *CampaignStream) UtilizationQuantile(q float64) float64 {
	return cs.sketch.Quantile(q)
}
