package reskit

import "reskit/internal/fault"

// Fault injection.
//
// Error handling contract of the facade: constructors taking parameters
// that are normally program constants (Normal, Truncate, NewDynamic,
// strategy constructors, ...) panic on invalid arguments, exactly like
// their internal counterparts. Entry points whose inputs typically come
// from the outside world — fault-plan specs (ParseFaults) and the fault
// models below, trace logs (FitTraceAll, CheckpointLawFromTrace),
// configuration structs (SimConfig.Validate, CampaignConfig.Validate)
// and the TryNew* problem constructors — return errors instead.
// Simulation entry points (Simulate, MonteCarlo*) panic on invalid
// configurations; validate untrusted configs first.

// FaultPlan bundles the fault models injected into a simulated
// reservation: fail-stop crashes (Crash), checkpoint-commit failures
// (Ckpt), and early reservation revocation (Revoke). Any subset may be
// set; assign the plan to SimConfig.Faults. Fault sampling is
// deterministic per rng substream, so faulty Monte-Carlo runs remain
// bit-identical for any worker count.
type FaultPlan = fault.Plan

// ParseFaults parses the compact fault-spec syntax of the simulate
// command's -faults flag, e.g. "crash=exp:0.02,ckptfail=0.05", which
// spells every bundled model: crash=exp or crash=weibull arrivals,
// ckptfail or ckpthazard commit failures, and revoke=exp or
// revoke=uniform revocation. The empty string and "none" yield a nil
// plan.
func ParseFaults(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// CrashExponential returns the memoryless fail-stop crash process with
// the given rate (MTBF = 1/rate), for FaultPlan.Crash.
func CrashExponential(rate float64) (fault.ExpArrival, error) { return fault.NewExpArrival(rate) }

// CkptFailBernoulli returns the checkpoint-commit failure model that
// fails each attempt independently with probability p, for
// FaultPlan.Ckpt.
func CkptFailBernoulli(p float64) (fault.CkptBernoulli, error) { return fault.NewCkptBernoulli(p) }
