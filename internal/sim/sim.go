// Package sim executes the reservation model of Barbut et al. (FTXS'23):
// single fixed-length reservations running either a preemptible
// application (Section 3) or a chain of IID stochastic tasks with
// boundary-only checkpoints (Section 4), under any strategy from
// internal/strategy, plus multi-reservation campaigns with recovery cost
// (Section 2 and Section 4.4) and a parallel Monte-Carlo harness.
//
// The simulator is the experimental companion the paper's conclusion
// calls for: every analytical expectation in internal/core is validated
// here against sampled trajectories.
//
// Beyond the paper's failure-free model, Config.Faults plugs in the
// composable fault models of internal/fault — fail-stop crashes,
// checkpoint-commit failures, and spot-style reservation revocation —
// with per-trajectory deterministic sampling, so every experiment
// (including sharded Monte-Carlo) stays bit-identical for a fixed seed.
package sim

import (
	"fmt"
	"math"
	"sync"

	"reskit/internal/dist"
	"reskit/internal/fault"
	"reskit/internal/obs"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// AfterPolicy selects what to do with leftover reservation time after a
// successful checkpoint (Section 4.4 of the paper).
type AfterPolicy int

const (
	// DropReservation releases the machine immediately after the first
	// successful checkpoint — the right choice when the platform charges
	// for time actually used.
	DropReservation AfterPolicy = iota
	// ContinueExecution keeps running tasks and checkpointing until the
	// reservation is exhausted — squeezing the most work out of a
	// pay-per-reservation allocation.
	ContinueExecution
)

// String returns the policy name.
func (a AfterPolicy) String() string {
	switch a {
	case DropReservation:
		return "drop"
	case ContinueExecution:
		return "continue"
	default:
		return fmt.Sprintf("AfterPolicy(%d)", int(a))
	}
}

// Config describes one workflow-reservation experiment.
type Config struct {
	R        float64           // reservation length
	Recovery float64           // fixed recovery time consumed at reservation start
	Task     dist.Continuous   // continuous task law (exclusive with TaskDisc)
	TaskDisc dist.Discrete     // discrete task law
	Ckpt     dist.Continuous   // checkpoint-duration law
	Strategy strategy.Strategy // decision policy at task boundaries
	After    AfterPolicy       // what to do after a successful checkpoint
	MaxTasks int               // safety cap on tasks per reservation (0 = auto)

	// RecoveryLaw, when set, replaces the fixed Recovery with a
	// stochastic recovery duration sampled at reservation start — like
	// the checkpoint itself, restoring state takes a variable time.
	RecoveryLaw dist.Continuous

	// Faults, when non-nil, injects the bundled fault models of
	// internal/fault — the paper's Section 5 future-work direction:
	// fail-stop crash arrivals (Exponential or Weibull gaps), per-attempt
	// checkpoint failures that consume time but commit nothing, and
	// early reservation revocation. A crash wipes the uncommitted work;
	// the job then pays a recovery (Recovery or RecoveryLaw) to reload
	// its last committed checkpoint and continues inside the same
	// reservation. Strategies are never told the revocation instant —
	// they observe the nominal R.
	Faults *fault.Plan

	// Obs, when non-nil, streams per-run counters, sampled trace events
	// and progress ticks to the observability layer (see Observer). The
	// default nil costs one pointer check per run, and an attached
	// observer never consumes randomness — aggregates are bit-identical
	// with observation on or off.
	Obs *Observer

	// trial is the global Monte-Carlo trial index of this run, set by
	// the parallel runners so trace sampling (Observer.TraceEvery) is
	// deterministic by index regardless of worker scheduling.
	trial int64
}

// Validate checks the configuration and returns a descriptive error for
// non-finite or out-of-range parameters, missing laws, or invalid fault
// models. Run panics on invalid configurations; call Validate
// first when the configuration comes from untrusted input (CLI flags,
// config files).
func (c *Config) Validate() error {
	if !(c.R > 0) || math.IsInf(c.R, 0) { // !(NaN > 0) is true
		return fmt.Errorf("sim: R must be positive and finite, got %g", c.R)
	}
	if !(c.Recovery >= 0) || math.IsInf(c.Recovery, 0) {
		return fmt.Errorf("sim: Recovery must be finite and >= 0, got %g", c.Recovery)
	}
	if c.RecoveryLaw != nil {
		if lo, _ := c.RecoveryLaw.Support(); lo < 0 {
			return fmt.Errorf("sim: RecoveryLaw support must start at >= 0, got %g", lo)
		}
	}
	if (c.Task == nil) == (c.TaskDisc == nil) {
		return fmt.Errorf("sim: exactly one of Task and TaskDisc must be set")
	}
	if c.Ckpt == nil {
		return fmt.Errorf("sim: Ckpt must be set")
	}
	if c.Strategy == nil {
		return fmt.Errorf("sim: Strategy must be set")
	}
	if c.MaxTasks < 0 {
		return fmt.Errorf("sim: MaxTasks must be >= 0, got %d", c.MaxTasks)
	}
	return c.Faults.Validate()
}

// validate panics on structurally invalid configurations.
func (c *Config) validate() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
}

// sampleRecovery returns the recovery time for one reservation: none in
// a campaign's first reservation, which has no checkpoint to reload.
func (c *Config) sampleRecovery(r *rng.Source, first bool) float64 {
	if first {
		return 0
	}
	if c.RecoveryLaw != nil {
		return c.RecoveryLaw.Sample(r)
	}
	return c.Recovery
}

// sampleTask draws one task duration.
func (c *Config) sampleTask(r *rng.Source) float64 {
	if c.TaskDisc != nil {
		return float64(c.TaskDisc.Sample(r))
	}
	return c.Task.Sample(r)
}

// taskMean returns the mean task duration.
func (c *Config) taskMean() float64 {
	if c.TaskDisc != nil {
		return c.TaskDisc.Mean()
	}
	return c.Task.Mean()
}

// maxTasks resolves the per-run task cap.
func (c *Config) maxTasks() int {
	if c.MaxTasks > 0 {
		return c.MaxTasks
	}
	mean := c.taskMean()
	if mean <= 0 {
		return 100000
	}
	n := int(20*c.R/mean) + 1000
	return n
}

// RunResult reports one simulated reservation.
type RunResult struct {
	Saved       float64 // work committed by successful checkpoints
	Lost        float64 // uncommitted work wiped at the reservation end
	Tasks       int     // tasks completed
	Checkpoints int     // successful checkpoints
	FailedCkpts int     // checkpoints cut short by the reservation end
	CkptFaults  int     // checkpoint attempts that ran to completion but failed to commit (injected faults)
	Failures    int     // fail-stop errors that struck during the run
	Revoked     bool    // the reservation was revoked before its nominal end
	TimeUsed    float64 // machine time consumed (<= R)
	CapHit      bool    // the MaxTasks safety cap stopped the run
}

// Run simulates one reservation under the configured strategy. The
// returned RunResult is exact for the sampled trajectory: work is saved
// only by checkpoints that complete strictly within the reservation (and,
// under Config.Faults, survive the checkpoint-failure model).
//
// Fault sampling order per reservation (see the fault package's
// determinism contract): recovery, revocation horizon, first crash gap;
// then one crash gap after each crash and one checkpoint-failure variate
// per completed checkpoint attempt.
func Run(cfg Config, r *rng.Source) RunResult {
	cfg.validate()
	return runReservation(&cfg, r, cfg.maxTasks(), false)
}

// runReservation is Run on a validated configuration whose task cap is
// already resolved, so a campaign checks and resolves them once rather
// than per reservation. first marks a campaign's first reservation,
// which pays no recovery: not at its start, nor after a crash inside it.
func runReservation(cfg *Config, r *rng.Source, taskCap int, first bool) RunResult {
	res := runOne(cfg, r, taskCap, first)
	if cfg.Obs != nil {
		cfg.Obs.record(res)
		if tr := cfg.Obs.tracer(cfg.trial); tr != nil {
			tr.Event(obs.Event{Trial: cfg.trial, Kind: obs.EvRunEnd, Time: res.TimeUsed, Value: res.Saved})
		}
	}
	return res
}

// runOne is the uninstrumented body of runReservation, emitting trace
// events to the trial's sampled sink (nil when tracing is off).
func runOne(cfg *Config, r *rng.Source, taskCap int, first bool) RunResult {
	tr := cfg.Obs.tracer(cfg.trial)
	var res RunResult

	// horizon is the effective reservation end: the nominal R, unless a
	// revocation model truncates it. Strategies still observe R.
	horizon := cfg.R
	var plan *fault.Plan
	if cfg.Faults.Active() {
		plan = cfg.Faults
	}

	elapsed := cfg.sampleRecovery(r, first)
	if plan != nil && plan.Revoke != nil {
		horizon = plan.Revoke.Horizon(cfg.R, r)
		res.Revoked = horizon < cfg.R
		if res.Revoked && tr != nil {
			tr.Event(obs.Event{Trial: cfg.trial, Kind: obs.EvRevocation, Time: 0, Value: horizon})
		}
	}
	if elapsed >= horizon {
		// The recovery ate the whole (possibly revoked) reservation.
		res.TimeUsed = horizon
		return res
	}
	var work float64 // uncommitted work
	tasksSinceCkpt := 0
	attemptsSinceCommit := 0 // failed checkpoint attempts since the last commit
	ckptAttempts := 0        // total checkpoint attempts, capped like tasks

	// Pre-sample the next fail-stop instant (infinity when crash-free).
	nextFail := math.Inf(1)
	if plan != nil && plan.Crash != nil {
		nextFail = elapsed + plan.Crash.Next(r)
	}
	// fail handles one fail-stop error at time t: the uncommitted work
	// is wiped and the job restarts from its last committed checkpoint
	// after a recovery. It returns false when the reservation is over.
	// Only a drawn crash makes nextFail finite, so plan.Crash is set.
	fail := func(t float64) bool {
		res.Failures++
		if tr != nil {
			tr.Event(obs.Event{Trial: cfg.trial, Kind: obs.EvCrash, Time: t, Value: work})
		}
		res.Lost += work
		work = 0
		tasksSinceCkpt = 0
		attemptsSinceCommit = 0
		elapsed = t + cfg.sampleRecovery(r, first)
		nextFail = elapsed + plan.Crash.Next(r)
		return elapsed < horizon
	}

	for {
		if res.Tasks >= taskCap || ckptAttempts >= taskCap {
			res.CapHit = true
			res.Lost += work
			res.TimeUsed = elapsed
			return res
		}
		st := strategy.State{
			R:              cfg.R,
			Elapsed:        elapsed,
			Work:           work,
			TasksDone:      tasksSinceCkpt,
			Committed:      res.Saved,
			Checkpoint:     res.Checkpoints,
			FailedAttempts: attemptsSinceCommit,
		}
		switch act := cfg.Strategy.Decide(st); act {
		case strategy.Continue:
			x := cfg.sampleTask(r)
			if nextFail <= elapsed+x && nextFail < horizon {
				// A fail-stop error strikes mid-task.
				if !fail(nextFail) {
					res.TimeUsed = horizon
					return res
				}
				continue
			}
			if elapsed+x > horizon {
				// The reservation ends mid-task: everything uncommitted
				// is lost.
				res.Lost += work
				res.TimeUsed = horizon
				return res
			}
			elapsed += x
			work += x
			res.Tasks++
			tasksSinceCkpt++
			if tr != nil {
				tr.Event(obs.Event{Trial: cfg.trial, Kind: obs.EvTaskEnd, Time: elapsed, Value: x})
			}

		case strategy.Checkpoint:
			if work == 0 {
				// Nothing to commit; treat as a drop.
				res.TimeUsed = elapsed
				return res
			}
			c := cfg.Ckpt.Sample(r)
			ckptAttempts++
			if tr != nil {
				tr.Event(obs.Event{Trial: cfg.trial, Kind: obs.EvCkptStart, Time: elapsed, Value: work})
			}
			if nextFail <= elapsed+c && nextFail < horizon {
				// A fail-stop error strikes mid-checkpoint: nothing was
				// committed.
				res.FailedCkpts++
				if !fail(nextFail) {
					res.TimeUsed = horizon
					return res
				}
				continue
			}
			if elapsed+c > horizon {
				// The reservation ends mid-checkpoint.
				res.FailedCkpts++
				res.Lost += work
				res.TimeUsed = horizon
				return res
			}
			if plan != nil && plan.Ckpt != nil && plan.Ckpt.Fails(c, r) {
				// The attempt ran to completion but the commit failed:
				// the time is gone, the in-memory state (and thus the
				// uncommitted work) survives. The strategy decides again
				// with FailedAttempts incremented.
				elapsed += c
				res.CkptFaults++
				attemptsSinceCommit++
				if tr != nil {
					tr.Event(obs.Event{Trial: cfg.trial, Kind: obs.EvCkptFault, Time: elapsed, Value: work})
				}
				continue
			}
			elapsed += c
			if tr != nil {
				tr.Event(obs.Event{Trial: cfg.trial, Kind: obs.EvCkptCommit, Time: elapsed, Value: work})
			}
			res.Saved += work
			work = 0
			tasksSinceCkpt = 0
			attemptsSinceCommit = 0
			res.Checkpoints++
			if cfg.After == DropReservation {
				res.TimeUsed = elapsed
				return res
			}

		case strategy.Stop:
			res.Lost += work
			res.TimeUsed = elapsed
			return res

		default:
			panic(fmt.Sprintf("sim: unknown action %v", act))
		}
	}
}

// RunOracle simulates a clairvoyant scheduler for the same trajectory
// model (failure-free: Faults is ignored, keeping the
// oracle an upper bound for the paper's model): it pre-samples the task
// durations and, for every boundary, the checkpoint duration that a
// checkpoint started there would take, then commits at the boundary
// maximizing the saved work. It upper-bounds every realizable
// single-checkpoint strategy.
func RunOracle(cfg Config, r *rng.Source) RunResult {
	res := runOracleOne(cfg, r)
	cfg.Obs.record(res)
	return res
}

// oracleScratch holds the trajectory buffers of runOracleOne, pooled so
// large Monte-Carlo oracle runs do not allocate two slices per trial.
type oracleScratch struct {
	sums, cs []float64
}

var oraclePool = sync.Pool{New: func() interface{} { return new(oracleScratch) }}

// runOracleOne is the uninstrumented body of RunOracle. The oracle makes
// its decision retrospectively, so no mid-run trace events are emitted.
func runOracleOne(cfg Config, r *rng.Source) RunResult {
	cfg.validate()
	var res RunResult

	start := cfg.sampleRecovery(r, false)
	if start >= cfg.R {
		res.TimeUsed = cfg.R
		return res
	}

	// Generate the trajectory up to the reservation end.
	scratch := oraclePool.Get().(*oracleScratch)
	defer oraclePool.Put(scratch)
	sums := scratch.sums[:0] // S_n for n = 1, 2, ...
	cs := scratch.cs[:0]     // checkpoint duration at boundary n
	defer func() { scratch.sums, scratch.cs = sums, cs }()
	elapsed := start
	taskCap := cfg.maxTasks()
	for len(sums) < taskCap {
		x := cfg.sampleTask(r)
		if elapsed+x > cfg.R {
			break
		}
		elapsed += x
		sums = append(sums, elapsed-start)
		cs = append(cs, cfg.Ckpt.Sample(r))
	}
	res.Tasks = len(sums)
	res.CapHit = len(sums) == taskCap

	// Choose the best boundary.
	best := -1
	for i, s := range sums {
		if start+s+cs[i] <= cfg.R && (best < 0 || s > sums[best]) {
			best = i
		}
	}
	if best < 0 {
		res.Lost = 0
		if len(sums) > 0 {
			res.Lost = sums[len(sums)-1]
		}
		res.TimeUsed = cfg.R
		return res
	}
	res.Saved = sums[best]
	res.Checkpoints = 1
	res.TimeUsed = start + sums[best] + cs[best]
	res.Lost = sums[len(sums)-1] - sums[best]
	return res
}
