package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer makes bytes.Buffer safe for the reporter goroutine + test
// goroutine pair.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestProgressRender(t *testing.T) {
	p := NewProgress(&bytes.Buffer{}, "trials", 1000, time.Second)
	base := time.Unix(100, 0)
	p.started = base // as if Start had run at the base instant
	p.Add(250)
	p.now = func() time.Time { return base.Add(10 * time.Second) } // 25 trials/s
	line := p.Render()
	for _, want := range []string{"trials:", "250/1000 trials", "25.0%", "25 trials/s", "ETA 30s"} {
		if !strings.Contains(line, want) {
			t.Errorf("render %q missing %q", line, want)
		}
	}
}

// TestProgressNamesItsUnit: the label is the unit the reporter counts,
// so a reporter of jobs speaks of jobs, with or without a total.
func TestProgressNamesItsUnit(t *testing.T) {
	for _, total := range []int64{40, 0} {
		p := NewProgress(&bytes.Buffer{}, "jobs", total, time.Second)
		base := time.Unix(100, 0)
		p.started = base
		p.Add(4)
		p.now = func() time.Time { return base.Add(2 * time.Second) }
		line := p.Render()
		if strings.Contains(line, "trials") {
			t.Errorf("total=%d: jobs reporter speaks of trials: %q", total, line)
		}
		for _, want := range []string{"jobs: 4", "4 jobs", "2 jobs/s"} {
			if total > 0 && want == "4 jobs" {
				want = "4/40 jobs"
			}
			if !strings.Contains(line, want) {
				t.Errorf("total=%d: render %q missing %q", total, line, want)
			}
		}
	}
}

// TestProgressRenderUnknownTotal: with total <= 0 the line carries the
// count and sustained rate but must not invent a percentage or an ETA —
// there is no total to extrapolate toward.
func TestProgressRenderUnknownTotal(t *testing.T) {
	for _, total := range []int64{0, -1} {
		p := NewProgress(&bytes.Buffer{}, "trials", total, time.Second)
		base := time.Unix(100, 0)
		p.started = base
		p.Add(250)
		p.now = func() time.Time { return base.Add(10 * time.Second) } // 25 trials/s
		line := p.Render()
		for _, want := range []string{"trials:", "250 trials", "25 trials/s"} {
			if !strings.Contains(line, want) {
				t.Errorf("total=%d: render %q missing %q", total, line, want)
			}
		}
		for _, forbid := range []string{"%", "ETA", "250/"} {
			if strings.Contains(line, forbid) {
				t.Errorf("total=%d: render %q carries %q despite unknown total", total, line, forbid)
			}
		}
	}
	// Before any time elapses the rate renders as a plain 0.
	p := NewProgress(&bytes.Buffer{}, "trials", 0, time.Second)
	p.Add(5)
	if line := p.Render(); !strings.Contains(line, "5 trials, 0 trials/s") {
		t.Errorf("zero-elapsed render: %q", line)
	}
}

// TestProgressPrecision: the ±half-width readout appears only once a
// streaming run published one, in both the known- and unknown-total
// branches, and tracks the latest value.
func TestProgressPrecision(t *testing.T) {
	for _, total := range []int64{0, 1000} {
		p := NewProgress(&bytes.Buffer{}, "stream", total, time.Second)
		base := time.Unix(100, 0)
		p.started = base
		p.now = func() time.Time { return base.Add(10 * time.Second) }
		p.Add(250)
		if _, ok := p.Precision(); ok {
			t.Errorf("total=%d: precision reported before any was set", total)
		}
		if line := p.Render(); strings.Contains(line, "±") {
			t.Errorf("total=%d: render %q shows precision before any was set", total, line)
		}
		p.SetPrecision(0.0421)
		hw, ok := p.Precision()
		if !ok || hw != 0.0421 {
			t.Errorf("total=%d: Precision() = %g,%v after SetPrecision", total, hw, ok)
		}
		if line := p.Render(); !strings.Contains(line, "±0.0421") {
			t.Errorf("total=%d: render %q missing the precision readout", total, line)
		}
		// The readout tracks the converging estimate, not its first value.
		p.SetPrecision(0.013)
		if line := p.Render(); !strings.Contains(line, "±0.013") || strings.Contains(line, "0.0421") {
			t.Errorf("total=%d: render %q did not track the latest precision", total, line)
		}
	}
	// Nil receiver: no-op set, zero get.
	var nilP *Progress
	nilP.SetPrecision(1)
	if hw, ok := nilP.Precision(); hw != 0 || ok {
		t.Error("nil progress should report no precision")
	}
}

func TestProgressStopWritesFinalLine(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, "campaign", 10, 10*time.Millisecond)
	p.Start(context.Background())
	p.Add(10)
	time.Sleep(35 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "10/10") {
		t.Errorf("final line missing completion: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("final line not newline-terminated: %q", out)
	}
}

func TestProgressRenderCampaignLevel(t *testing.T) {
	p := NewProgress(&bytes.Buffer{}, "campaign", 1000, time.Second)
	base := time.Unix(100, 0)
	p.started = base
	p.now = func() time.Time { return base.Add(10 * time.Second) }
	p.Add(250)
	// Before any AddWork, the campaign-level fields stay out of the line.
	if line := p.Render(); strings.Contains(line, "res") {
		t.Errorf("render shows reservations before any were reported: %q", line)
	}
	p.AddWork(7, 101.5)
	p.AddWork(3, 28.5)
	if got, want := p.Reservations(), int64(10); got != want {
		t.Errorf("Reservations() = %d, want %d", got, want)
	}
	if got := p.Work(); got != 130 {
		t.Errorf("Work() = %g, want 130", got)
	}
	line := p.Render()
	for _, want := range []string{"10 res", "130 work", "ETA"} {
		if !strings.Contains(line, want) {
			t.Errorf("render %q missing %q", line, want)
		}
	}
}

func TestProgressAddWorkNil(t *testing.T) {
	var p *Progress
	p.AddWork(3, 1.5) // must not panic
	if p.Reservations() != 0 || p.Work() != 0 {
		t.Error("nil progress should report zero campaign-level progress")
	}
}

func TestProgressCancellationStopsReporter(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, "campaign", 100, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	p.Add(1)
	cancel()
	p.Stop() // must not hang on the cancelled reporter
}
