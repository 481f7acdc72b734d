package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Registry names and owns a set of instruments. Lookup is get-or-create
// and idempotent: asking twice for the same name returns the same
// instrument, so independent subsystems can bind the same counter.
// Lookups take a mutex (they happen once, at setup); the instruments
// themselves are lock-free. All methods on a nil *Registry return nil
// instruments, which are themselves no-ops — a nil registry disables a
// whole instrumentation tree at zero cost.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	quants   map[string]*Quantiles
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		quants:   make(map[string]*Quantiles),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RemoveGauge drops the named gauge from the registry. Dynamically
// named gauges (one per remote worker, say) must be removed when their
// subject goes away, or registry memory and the exported metric set
// grow without bound. Removing an absent name is a no-op; a previously
// returned instrument keeps working but is no longer exported.
func (r *Registry) RemoveGauge(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.gauges, name)
}

// Quantiles returns the named quantile sketch, creating it on first
// use. The sketch needs no layout: it adapts to the observed range.
func (r *Registry) Quantiles(name string) *Quantiles {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.quants[name]
	if !ok {
		q = &Quantiles{}
		r.quants[name] = q
	}
	return q
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// shaped for JSON encoding (stable key order comes from the maps being
// marshalled with sorted keys by encoding/json).
type Snapshot struct {
	Counters  map[string]int64             `json:"counters,omitempty"`
	Gauges    map[string]float64           `json:"gauges,omitempty"`
	Quantiles map[string]QuantilesSnapshot `json:"quantiles,omitempty"`
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.quants) > 0 {
		s.Quantiles = make(map[string]QuantilesSnapshot, len(r.quants))
		for n, q := range r.quants {
			s.Quantiles[n] = q.Snapshot()
		}
	}
	return s
}

// Names returns the sorted names of all registered instruments — handy
// for tests and debug dumps.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.quants))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.quants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes an indented JSON snapshot to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ExpvarFunc adapts the registry to expvar.Func: publish it with
//
//	expvar.Publish("reskit", expvar.Func(reg.ExpvarFunc()))
//
// so GET /debug/vars serves a live snapshot. The indirection keeps obs
// free of an expvar import (and of expvar's irrevocable global
// registration) — the caller owns the publication.
func (r *Registry) ExpvarFunc() func() interface{} {
	return func() interface{} { return r.Snapshot() }
}
