package sim

import (
	"reskit/internal/obs"
)

// Observer streams per-run tallies, sampled trace events, and progress
// ticks from the simulator to the observability layer of internal/obs.
// Attach one to Config.Obs; a nil Observer (the default) is free — the
// simulator pays one pointer check per run — and an attached Observer
// never consumes randomness or alters control flow, so aggregates are
// bit-identical with observation on or off (see TestObserverDoesNotPerturb*).
//
// All fields are optional: unbound counters are nil and no-ops. Bind the
// canonical set with NewObserver, or populate fields by hand for custom
// wiring.
type Observer struct {
	Trials      *obs.Counter // simulated reservations (oracle runs included)
	Blocks      *obs.Counter // Monte-Carlo blocks completed (one rng substream each)
	Tasks       *obs.Counter // tasks completed across all runs
	Checkpoints *obs.Counter // successful checkpoint commits
	CkptFaults  *obs.Counter // completed attempts that failed to commit (injected faults)
	FailedCkpts *obs.Counter // checkpoints cut by the reservation end
	Crashes     *obs.Counter // fail-stop errors injected
	Revocations *obs.Counter // reservations revoked before their nominal end
	ZeroRuns    *obs.Counter // runs that saved no work
	Campaigns   *obs.Counter // completed campaign trials (campaign Monte-Carlo only)

	// SavedQ sketches the distribution of per-reservation saved work
	// without a fixed layout (quantiles adapt to the observed range).
	SavedQ *obs.Quantiles

	// Trace, when non-nil, receives the event stream of sampled trials:
	// task-end, checkpoint-start, commit, fault and revocation events
	// with simulation timestamps. TraceEvery selects one trial in every
	// TraceEvery by trial index (obs.Sampled) — deterministic, so the
	// traced subset is identical across runs and worker counts; <= 1
	// traces every trial.
	Trace      obs.TraceSink
	TraceEvery int64

	// Progress, when non-nil, is ticked once per completed Monte-Carlo
	// trial (per reservation in a reservation grid, per campaign in a
	// campaign grid or stream).
	Progress *obs.Progress
}

// NewObserver binds the canonical instrument set on reg under the "sim."
// prefix, with the saved-work distribution in the "sim.saved_work"
// quantile sketch. A nil registry yields an Observer whose instruments
// are all nil (still usable, still free); callers wanting tracing or
// progress set those fields afterwards.
func NewObserver(reg *obs.Registry) *Observer {
	o := &Observer{
		Trials:      reg.Counter("sim.trials"),
		Blocks:      reg.Counter("sim.blocks"),
		Tasks:       reg.Counter("sim.tasks"),
		Checkpoints: reg.Counter("sim.checkpoints"),
		CkptFaults:  reg.Counter("sim.ckpt_faults"),
		FailedCkpts: reg.Counter("sim.failed_ckpts"),
		Crashes:     reg.Counter("sim.crashes"),
		Revocations: reg.Counter("sim.revocations"),
		ZeroRuns:    reg.Counter("sim.zero_runs"),
		Campaigns:   reg.Counter("sim.campaigns"),
	}
	if reg != nil {
		o.SavedQ = reg.Quantiles("sim.saved_work")
	}
	return o
}

// record folds one finished run into the counters. Called once per
// simulated reservation, so the cost is a handful of atomic adds even
// when instrumentation is on.
func (o *Observer) record(res RunResult) {
	if o == nil {
		return
	}
	o.Trials.Inc()
	o.Tasks.Add(int64(res.Tasks))
	o.Checkpoints.Add(int64(res.Checkpoints))
	o.CkptFaults.Add(int64(res.CkptFaults))
	o.FailedCkpts.Add(int64(res.FailedCkpts))
	o.Crashes.Add(int64(res.Failures))
	if res.Revoked {
		o.Revocations.Inc()
	}
	if res.Saved == 0 {
		o.ZeroRuns.Inc()
	}
	o.SavedQ.Observe(res.Saved)
}

// tracer returns the sink receiving this trial's events, or nil when the
// trial is not sampled (or tracing is off). The decision depends only on
// the trial index, never on randomness.
func (o *Observer) tracer(trial int64) obs.TraceSink {
	if o == nil || o.Trace == nil || !obs.Sampled(trial, o.TraceEvery) {
		return nil
	}
	return o.Trace
}

// tickProgress records n completed Monte-Carlo trials.
func (o *Observer) tickProgress(n int64) {
	if o == nil {
		return
	}
	o.Progress.Add(n)
}

// tickProgressWork records campaign-level progress behind the trial
// ticks: completed reservations and committed work. Like every observer
// hook it consumes no randomness and never alters control flow.
func (o *Observer) tickProgressWork(reservations int64, committed float64) {
	if o == nil {
		return
	}
	o.Progress.AddWork(reservations, committed)
}

// tickPrecision publishes the current CI half-width of a streaming
// run's stop target to the progress readout.
func (o *Observer) tickPrecision(halfwidth float64) {
	if o == nil {
		return
	}
	o.Progress.SetPrecision(halfwidth)
}

// tickBlock records one completed Monte-Carlo block.
func (o *Observer) tickBlock() {
	if o == nil {
		return
	}
	o.Blocks.Inc()
}

// tickCampaign records one completed campaign trial.
func (o *Observer) tickCampaign() {
	if o == nil {
		return
	}
	o.Campaigns.Inc()
}
