package obs

import (
	"sync"

	"reskit/internal/stats"
)

// Quantiles tracks the distribution of a metric without a fixed layout:
// it wraps a stats.QSketch behind a mutex, so parallel workers can
// observe into it and a snapshot can be cut at any time. It needs no
// a-priori [lo, hi) range — the sketch adapts to whatever the samples
// are — at the price of approximate (but tail-accurate) quantiles and a
// lock per observation. All methods are no-ops on a nil
// *Quantiles, matching the other instruments.
type Quantiles struct {
	mu sync.Mutex
	sk stats.QSketch
}

// Observe absorbs one sample.
func (q *Quantiles) Observe(x float64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.sk.Add(x)
	q.mu.Unlock()
}

// QuantilesSnapshot is a point-in-time summary of a Quantiles
// instrument, shaped for JSON. An empty instrument reports zeros (not
// NaN, which JSON cannot carry).
type QuantilesSnapshot struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot cuts the current summary.
func (q *Quantiles) Snapshot() QuantilesSnapshot {
	if q == nil {
		return QuantilesSnapshot{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if s := &q.sk; s.Count() > 0 {
		return QuantilesSnapshot{
			Count: s.Count(),
			Min:   s.Min(),
			Max:   s.Max(),
			P50:   s.Quantile(0.50),
			P90:   s.Quantile(0.90),
			P99:   s.Quantile(0.99),
		}
	}
	return QuantilesSnapshot{}
}
