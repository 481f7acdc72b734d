package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"reskit/internal/obs"
)

// pool is the one run loop behind Run and RunStream. A worker commits
// its result and takes the next index off the source under one mutex:
// no coordinating goroutine, no job or result channel — one lock
// round trip per job. The source and sink are called under that mutex
// on purpose: it is what keeps them never concurrent and in index
// order, their contract, and both are cheap next to a job. A sinkless
// pool (Run) keeps and records every completed payload by index; a
// permanently failed job is just a missing record. A folding pool
// (RunStream) parks results in a ring of window slots until their
// index reaches the commit frontier, then folds them into the sink in
// order and records the frontier.
type pool struct {
	ex      *executor
	src     JobSource
	maxJobs int // take no index at or past maxJobs (0: no cap)
	led     *Ledger
	done    <-chan struct{} // the run's job context
	cancel  context.CancelFunc

	// Sinkless runs: kept[i] is job i's payload. Restored entries are
	// non-nil before the run starts, and their jobs are skipped.
	kept [][]byte

	// Folding runs: the sink, the dispatch window, and the ring parking
	// results of indices [frontier, next) at index % window.
	sink   StreamSink
	window int
	parked [][]byte
	ready  []bool
	room   sync.Cond // broadcast when the window may have room; L is &mu

	mu        sync.Mutex
	next      int // next index to take off the source
	frontier  int // folding: jobs [0, frontier) are folded
	fresh     int // jobs completed (sinkless) or folded (folding) by this run
	exhausted bool
	stopped   bool
	err       error // first real failure
	failed    []*JobError

	doneCtr, failedCtr  *obs.Counter
	frontierGauge, rate *obs.Gauge // rate: jobs per second of this run
	progress            *obs.Progress
}

// drain runs the pool on `workers` workers until the source is
// exhausted, the sink stops the run, a job fails for good, or ctx is
// cancelled; it returns once every worker has left at a job boundary.
func (p *pool) drain(ctx context.Context, workers int) {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	p.done, p.cancel = jobCtx.Done(), cancel
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(jobCtx)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		p.rate.Set(float64(p.fresh) / elapsed)
	}
}

// work is one worker: take, run, commit, until there is nothing to take.
func (p *pool) work(ctx context.Context) {
	// One padded pair of Sources per worker, reinitialized per job (and
	// per attempt): state identical to a fresh NewStream, with no
	// per-job allocation.
	ws := new(workerSources)
	p.mu.Lock()
	for {
		i, job, ok := p.takeLocked()
		if !ok {
			break
		}
		p.mu.Unlock()
		jr, attempts, verdict, err := p.ex.runJob(ctx, i, &job, ws)
		p.mu.Lock()
		p.settleLocked(i, &job, jr.Payload, attempts, verdict, err)
	}
	p.mu.Unlock()
}

// takeLocked returns the next job to run, or false when the run is
// over: failed, stopped, cancelled or exhausted. A folding worker waits
// here while the window is full.
func (p *pool) takeLocked() (int, Job, bool) {
	for {
		if p.err != nil || p.stopped || p.exhausted {
			return 0, Job{}, false
		}
		select {
		case <-p.done:
			return 0, Job{}, false
		default:
		}
		if p.maxJobs > 0 && p.next >= p.maxJobs {
			p.exhausted = true
			continue
		}
		if p.window > 0 && p.next-p.frontier >= p.window {
			p.room.Wait()
			continue
		}
		job, ok := p.src.Next()
		if !ok {
			p.exhausted = true
			continue
		}
		i := p.next
		p.next++
		if p.kept != nil && p.kept[i] != nil {
			continue // restored from the snapshot
		}
		return i, job, true
	}
}

// settleLocked commits job i's verdict.
func (p *pool) settleLocked(i int, job *Job, payload []byte, attempts int, verdict jobVerdict, err error) {
	switch {
	case verdict == jobDrained:
		// Cancelled at a job or backoff boundary: unrecorded and
		// resumable. The frontier can no longer reach i, so wake any
		// worker waiting for window room to see the cancellation.
		p.room.Broadcast()
	case verdict == jobFailed && p.ex.pol.KeepGoing:
		p.failedCtr.Inc()
		p.failed = append(p.failed, &JobError{Job: i, Name: job.Name, Attempts: attempts, Err: err})
	case verdict != jobDone:
		// jobFailed without keep-going, or jobFabricated: a fabricated
		// context error is a programming bug, never kept going.
		p.failLocked(wrapJobErr(i, job.Name, attempts, err))
	case p.sink == nil:
		// Whatever completes is kept and recorded, even after another
		// job failed: it is worth keeping for the resume.
		p.kept[i] = payload
		p.led.Record(i, payload)
		p.completed()
	case p.err == nil && !p.stopped:
		p.parkLocked(i, payload)
	}
}

// parkLocked parks job i's payload and folds the contiguous prefix at
// the frontier. The stop rule is evaluated after every fold, so the run
// stops at the exact frontier the sink asked for, regardless of arrival
// order; results past it are discarded, never folded.
func (p *pool) parkLocked(i int, payload []byte) {
	p.parked[i%p.window], p.ready[i%p.window] = payload, true
	for slot := p.frontier % p.window; p.ready[slot]; slot = p.frontier % p.window {
		payload := p.parked[slot]
		p.parked[slot], p.ready[slot] = nil, false
		stop, err := p.sink.Commit(p.frontier, payload)
		if err != nil {
			p.failLocked(fmt.Errorf("engine: stream sink rejected job %d: %w", p.frontier, err))
			return
		}
		p.frontier++
		p.frontierGauge.Set(float64(p.frontier))
		p.completed()
		p.room.Broadcast()
		if stop {
			p.stopped = true
			p.cancel() // abandon in-flight work; those results are discarded
			return
		}
		if p.snapshotLocked(false); p.err != nil {
			return
		}
	}
}

// snapshotLocked records the frontier in the ledger when a write is due
// (or, when final, unconditionally). The sink state is materialized
// only then: unlike job payloads it must be re-encoded at every
// frontier it is persisted at.
func (p *pool) snapshotLocked(final bool) {
	if p.led == nil || p.frontier == 0 || (!final && !p.led.w.Due()) {
		return
	}
	state, err := p.sink.State()
	if err != nil {
		p.failLocked(fmt.Errorf("engine: serializing stream sink at frontier %d: %w", p.frontier, err))
	} else if err := p.led.Admit("stream sink state", state); err != nil {
		p.failLocked(fmt.Errorf("engine: frontier %d: %w", p.frontier, err))
	} else {
		p.led.w.CommitStream(int64(p.frontier), state)
	}
}

// completed counts one job completed by this run.
func (p *pool) completed() {
	p.fresh++
	p.doneCtr.Inc()
	p.progress.Add(1)
}

// failLocked records the run's first real failure and cancels the run.
func (p *pool) failLocked(err error) {
	if p.err == nil {
		p.err = err
		p.cancel()
		p.room.Broadcast()
	}
}
