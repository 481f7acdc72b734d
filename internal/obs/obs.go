// Package obs is the dependency-free observability layer of reskit: it
// provides the atomic counters and gauges and the quantile sketches
// that instrument the Monte-Carlo hot paths, a per-run event-tracing hook
// with deterministic sampling, and a live progress reporter for long
// campaigns.
//
// The package is built around one invariant: *disabled observability is
// free and enabled observability is invisible to the experiment*. Every
// metric type treats a nil receiver as a no-op, so an un-instrumented
// configuration pays exactly one nil check per increment site, and no
// instrument ever consumes randomness or changes control flow — campaign
// aggregates are bit-identical with observability on or off, for any
// worker count (proved by the equivalence tests in internal/sim).
//
// Instruments are created through a Registry, which names them, serves
// them to expvar, and snapshots them to JSON:
//
//	reg := obs.NewRegistry()
//	trials := reg.Counter("sim.trials")
//	...
//	trials.Inc()                   // hot path: one atomic add
//	reg.WriteJSON(os.Stdout)       // snapshot for -metrics
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are
// safe for concurrent use, and all methods on a nil *Counter are no-ops —
// the nil check is the entire cost of disabled instrumentation.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways (e.g. trials/sec,
// queue depth). Stored as IEEE-754 bits behind an atomic uint64; Add uses
// a CAS loop. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
