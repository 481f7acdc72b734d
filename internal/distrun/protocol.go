// Package distrun distributes a grid of engine jobs across machines: a
// coordinator owns the leases and records results in engine.Run's own
// durable ledger (engine.Ledger), while workers lease batches over
// HTTP, execute them through internal/engine — the same per-job rng
// substreams, the same failure policy — and return the payload bytes,
// which the coordinator merges in job order. The final result is
// bit-identical to a single-process engine.Run of the same Spec and
// seed *by construction*: a job's payload is a pure function of
// (config, seed, stream), so it does not matter which machine computed
// it, how many times it was computed, or in what order the results
// arrived.
//
// Robustness is the point of the package, and it leans on the same
// insight as the paper's prediction-window relatives (Aupy/Robert/
// Vivien): the coordinator acts on *unreliable* signals of worker loss.
// A missed heartbeat is not proof of death — it expires the lease and
// requeues the jobs, but a slow worker's late result for a requeued job
// is still accepted, exactly once, deduplicated by job index (any two
// results for a job are identical bytes, so "exactly once" is a ledger
// property, not a correctness requirement). And because the engine's
// durable snapshots make restarts free (Sodre's restart-vs-checkpoint
// observation), worker loss always resolves to a cheap requeue: no
// work already committed to the coordinator's snapshot is ever redone,
// and a killed coordinator resumes from its own snapshot with only the
// incomplete leases re-issued.
package distrun

import "reskit/internal/httpd"

// Protocol endpoints served by the coordinator (Coordinator.Handler).
const (
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathResult    = "/v1/result"
)

// Lease response statuses.
const (
	// StatusLease carries a batch of job indices to execute.
	StatusLease = "lease"
	// StatusWait means every remaining job is currently leased to
	// someone: ask again after RetryMS (an expiry may requeue work).
	StatusWait = "wait"
	// StatusDone means the run is over — completed, failed, or stopped —
	// and the worker should exit.
	StatusDone = "done"
)

// RunID identifies the run a message belongs to. The coordinator
// rejects any message whose identity disagrees with its own (409), so a
// worker built from different flags — different laws, trial count, or
// seed — can never contribute payloads to the wrong ledger.
type RunID struct {
	Fingerprint httpd.Hex64 `json:"fingerprint"`
	Seed        httpd.Hex64 `json:"seed"`
	NumJobs     int         `json:"num_jobs"`
}

// LeaseRequest asks for a batch of jobs.
type LeaseRequest struct {
	RunID
	Worker string `json:"worker"`
}

// LeaseResponse answers a lease request; the meaning of the fields
// depends on Status.
type LeaseResponse struct {
	Status string `json:"status"`
	// Lease identifies the granted lease for heartbeats and results.
	Lease uint64 `json:"lease,omitempty"`
	// Jobs are the leased job indices into the shared job grid.
	Jobs []int `json:"jobs,omitempty"`
	// TTLMS is the lease deadline: without a heartbeat or a result
	// within this many milliseconds the lease expires and the jobs are
	// requeued.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// RetryMS (StatusWait) is how long to pause before asking again.
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// HeartbeatRequest extends a lease's deadline.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

// HeartbeatResponse acknowledges a heartbeat. OK false means the lease
// is gone — expired and requeued, or never existed. The worker may keep
// computing and still submit: a late result is accepted idempotently.
type HeartbeatResponse struct {
	OK    bool  `json:"ok"`
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// JobResultWire carries one completed job's payload (base64 over JSON).
type JobResultWire struct {
	Job     int    `json:"job"`
	Payload []byte `json:"payload"`
}

// JobFailureWire reports one job the worker gave up on after its local
// retry budget.
type JobFailureWire struct {
	Job      int    `json:"job"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// ResultRequest returns a lease's outcome: completed payloads and
// permanent local failures. A request whose lease has already expired
// is still processed — completed jobs the ledger does not yet hold are
// accepted, jobs that were requeued and finished elsewhere count as
// duplicates.
type ResultRequest struct {
	RunID
	Worker  string           `json:"worker"`
	Lease   uint64           `json:"lease"`
	Results []JobResultWire  `json:"results,omitempty"`
	Failed  []JobFailureWire `json:"failed,omitempty"`
}

// ResultResponse summarizes what the ledger did with a result
// submission.
type ResultResponse struct {
	Accepted  int  `json:"accepted"`
	Duplicate int  `json:"duplicate"`
	Done      bool `json:"done"`
}

// maxRequestBytes bounds a protocol request body. Payloads are a few
// hundred bytes each and batches are capped, so this is generous.
const maxRequestBytes = 64 << 20
