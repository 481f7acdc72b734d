package obs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a live progress reporter for long Monte-Carlo campaigns:
// workers call Add (one atomic add) as units of work (trials, jobs,
// figures) complete, and a single reporter goroutine periodically
// renders "done/total, units/sec, ETA" to a writer. It is
// cancellation-aware — the reporter stops on Stop or when the context
// given to Start is cancelled, always emitting a final line so
// interrupted campaigns still report how far they got.
//
// A nil *Progress is a no-op on every method, so the instrumented hot
// path pays one nil check when progress reporting is off.
type Progress struct {
	done  Counter
	total int64

	// Campaign-level progress behind the trial ticks: reservations
	// completed and work committed so far. Rendered only when reported.
	res  Counter
	work Gauge

	// Live precision of a converging estimate (CI half-width), published
	// by streaming runs via SetPrecision. Rendered only once set — the
	// natural counterpart of the ETA for runs whose total is unknown.
	prec   Gauge
	precOn atomic.Bool

	w        io.Writer
	label    string
	interval time.Duration
	now      func() time.Time // injectable clock for tests

	mu      sync.Mutex
	started time.Time
	cancel  context.CancelFunc
	waitCh  chan struct{}
	stopped bool
}

// NewProgress returns a reporter writing to w every interval (default
// 1s) while running. label is the plural of the unit the reporter counts
// ("trials", "jobs"). total <= 0 means the total is unknown: rendered
// lines omit the percentage and ETA.
func NewProgress(w io.Writer, label string, total int64, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	return &Progress{w: w, label: label, total: total, interval: interval, now: time.Now}
}

// Add records n completed units. Safe for concurrent use.
func (p *Progress) Add(n int64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// Done returns the number of units recorded so far.
func (p *Progress) Done() int64 {
	if p == nil {
		return 0
	}
	return p.done.Value()
}

// AddWork records campaign-level progress behind the trial ticks:
// reservations completed and work committed. Safe for concurrent use;
// a line rendered between the two adds may lag by one reservation,
// which is harmless for a live display.
func (p *Progress) AddWork(reservations int64, committed float64) {
	if p == nil {
		return
	}
	p.res.Add(reservations)
	p.work.Add(committed)
}

// Reservations returns the reservations recorded by AddWork so far.
func (p *Progress) Reservations() int64 {
	if p == nil {
		return 0
	}
	return p.res.Value()
}

// Work returns the committed work recorded by AddWork so far.
func (p *Progress) Work() float64 {
	if p == nil {
		return 0
	}
	return p.work.Value()
}

// SetPrecision publishes the current precision of a converging estimate
// — the CI half-width a sequential-stopping run is driving down. Once
// set, rendered lines carry a "±hw" readout. Safe for concurrent use.
func (p *Progress) SetPrecision(halfwidth float64) {
	if p == nil {
		return
	}
	p.prec.Set(halfwidth)
	p.precOn.Store(true)
}

// Precision returns the last published half-width and whether one was
// ever published.
func (p *Progress) Precision() (float64, bool) {
	if p == nil {
		return 0, false
	}
	return p.prec.Value(), p.precOn.Load()
}

// Start launches the reporter goroutine. It returns immediately; the
// goroutine renders a line every interval until Stop is called or ctx is
// cancelled. Starting a nil or already-started reporter is a no-op.
func (p *Progress) Start(ctx context.Context) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.waitCh != nil || p.stopped {
		return
	}
	p.started = p.now()
	ctx, p.cancel = context.WithCancel(ctx)
	p.waitCh = make(chan struct{})
	go p.loop(ctx, p.waitCh)
}

func (p *Progress) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			fmt.Fprintf(p.w, "\r%s", p.Render())
		}
	}
}

// Stop halts the reporter and writes the final line. Idempotent; safe on
// a reporter that was never started.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	cancel, wait := p.cancel, p.waitCh
	alreadyStopped := p.stopped
	p.stopped = true
	p.cancel, p.waitCh = nil, nil
	p.mu.Unlock()
	if cancel != nil {
		cancel()
		<-wait
	}
	if !alreadyStopped && wait != nil {
		fmt.Fprintf(p.w, "\r%s\n", p.Render())
	}
}

// Render formats the current progress line: units done, completion
// percentage, sustained units/sec and the ETA extrapolated from them.
// The label names the unit counted ("trials", "jobs", "figures"), so it
// heads the line and names both counts.
func (p *Progress) Render() string {
	if p == nil {
		return ""
	}
	done := p.done.Value()
	p.mu.Lock()
	started := p.started
	p.mu.Unlock()
	var rate float64
	if elapsed := p.now().Sub(started).Seconds(); elapsed > 0 && !started.IsZero() {
		rate = float64(done) / elapsed
	}
	// Campaign-level progress (reservations completed, work committed)
	// appears once something reported it via AddWork.
	var campaign string
	if res := p.res.Value(); res > 0 {
		campaign = fmt.Sprintf(", %d res, %.4g work", res, p.work.Value())
	}
	// Precision readout (CI half-width) appears once a streaming run
	// published it via SetPrecision.
	var prec string
	if p.precOn.Load() {
		prec = fmt.Sprintf(", ±%.3g", p.prec.Value())
	}
	if p.total > 0 {
		pct := 100 * float64(done) / float64(p.total)
		eta := "?"
		if rate > 0 && done < p.total {
			eta = (time.Duration(float64(p.total-done) / rate * float64(time.Second))).Round(time.Second).String()
		} else if done >= p.total {
			eta = "0s"
		}
		return fmt.Sprintf("%s: %d/%d %s (%.1f%%), %.0f %s/s%s%s, ETA %s",
			p.label, done, p.total, p.label, pct, rate, p.label, campaign, prec, eta)
	}
	return fmt.Sprintf("%s: %d %s, %.0f %s/s%s%s", p.label, done, p.label, rate, p.label, campaign, prec)
}
