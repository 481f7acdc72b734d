package reskit

import (
	"context"

	"reskit/internal/engine"
	"reskit/internal/sim"
	"reskit/internal/stats"
)

// Streaming facade: open-ended runs drained from a lazy job source into
// an ordered sink, stopped by a sequential statistical rule instead of a
// fixed trial count. The engine half (RunEngineStream) generalizes
// RunEngine from "run this slice" to "drain this source"; the campaign
// half (CampaignStream) is the paper's Monte-Carlo as such a stream.

// EngineJobSource is a lazy, possibly unbounded stream of jobs — the
// generalization of EngineSpec.Jobs. The engine never pulls jobs
// concurrently and pulls them in index order, and a source must be
// deterministic: resuming a run replays it from the start.
type EngineJobSource = engine.JobSource

// EngineStreamSink folds committed payloads in strict index order and
// may ask the run to stop at the current frontier.
type EngineStreamSink = engine.StreamSink

// EngineStreamSpec describes a streaming run: source, sink, and the
// same reproducibility, durability and failure-policy knobs as
// EngineSpec, plus the job cap and dispatch window.
type EngineStreamSpec = engine.StreamSpec

// EngineStreamResult reports a streaming run: the commit frontier, how
// much of it was restored from a snapshot, and whether the sink stopped
// the run or the source ran dry.
type EngineStreamResult = engine.StreamResult

// NewEngineSliceSource adapts a fixed job slice to an EngineJobSource —
// the batch grid as a special case of the stream.
func NewEngineSliceSource(jobs []EngineJob) EngineJobSource { return engine.NewSliceSource(jobs) }

// RunEngineStream drains the source into the sink across workers,
// folding results in strict index order and evaluating the sink's stop
// rule after every fold. With checkpointing configured the commit
// frontier and sink state are snapshotted, so a killed run resumes
// bit-identically.
func RunEngineStream(ctx context.Context, spec EngineStreamSpec) (*EngineStreamResult, error) {
	return engine.RunStream(ctx, spec)
}

// StopSpec is a sequential stopping rule: stop when the CI half-width
// of the target mean is small enough (relative or absolute), optionally
// also requiring the tracked quantiles to have stopped moving. The zero
// value never stops.
type StopSpec = stats.StopSpec

// ParseStopSpec parses a compact stopping-rule spec such as
// "rel=0.005,conf=0.99,min=5000,qtol=0.02"; a bare number is shorthand
// for the relative criterion.
func ParseStopSpec(s string) (StopSpec, error) { return stats.ParseStop(s) }

// StatSummary is a running mean/variance accumulator (Welford) with an
// exact binary wire image — the building block of streaming stop rules.
type StatSummary = stats.Summary

// CampaignStream is a streaming campaign Monte-Carlo: a lazy block
// source plus the ordered sink folding blocks and evaluating the
// stopping rule. The aggregate and the stop decision are identical for
// any worker count and across kill-and-resume.
type CampaignStream = sim.CampaignStream

// NewCampaignStream validates cfg and the stopping rule. target selects
// the watched summary: "util" (default), "lost" or "res".
func NewCampaignStream(cfg CampaignConfig, stop StopSpec, target string) (*CampaignStream, error) {
	return sim.NewCampaignStream(cfg, stop, target)
}

// StreamTargets names the metrics a campaign stopping rule may target.
func StreamTargets() []string { return append([]string(nil), sim.StreamTargets...) }

// StreamBlocks converts a trial budget into the streamed-block cap for
// EngineStreamSpec.MaxJobs, rounding up to whole blocks.
func StreamBlocks(trials int) int { return sim.NumCampaignBlocks(trials) }

// StreamBlockTrials is the number of trials in one streamed campaign
// block.
const StreamBlockTrials = sim.StreamBlockTrials
