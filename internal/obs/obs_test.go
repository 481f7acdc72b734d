package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	// The disabled path is a nil receiver everywhere; none of these may
	// panic, and reads must return zeros.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(2)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var q *Quantiles
	q.Observe(1)
	if s := q.Snapshot(); s.Count != 0 {
		t.Error("nil quantile sketch counted")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Quantiles("x") != nil {
		t.Error("nil registry returned a live instrument")
	}
	r.Counter("x").Inc() // the chained no-op the hot paths rely on
	if len(r.Names()) != 0 {
		t.Error("nil registry has names")
	}
	var p *Progress
	p.Add(3)
	p.Start(nil) //nolint:staticcheck // nil ctx must be tolerated by the nil receiver
	p.Stop()
	if p.Done() != 0 || p.Render() != "" {
		t.Error("nil progress reported state")
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if want := float64(workers*per) * 0.5; g.Value() != want {
		t.Errorf("gauge = %g, want %g", g.Value(), want)
	}
}

func TestRegistryIdempotentAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name returned distinct counters")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(1.5)
	r.Quantiles("q").Observe(1)
	if got := r.Names(); strings.Join(got, ",") != "a,g,q" {
		t.Errorf("names = %v", got)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["a"] != 3 || snap.Gauges["g"] != 1.5 || snap.Quantiles["q"].Count != 1 {
		t.Errorf("snapshot lost values: %+v", snap)
	}
}

func TestRegistryRemoveGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(1)
	r.RemoveGauge("g")
	r.RemoveGauge("absent") // no-op
	if got := r.Names(); len(got) != 0 {
		t.Errorf("names after removal = %v, want none", got)
	}
	g.Set(2) // the handed-out instrument keeps working, just unexported
	if r.Gauge("g") == g {
		t.Error("re-registering a removed name returned the old instrument")
	}
	var nilReg *Registry
	nilReg.RemoveGauge("g") // nil registry is a no-op, not a panic
}

func TestSampledIsDeterministicModulo(t *testing.T) {
	for trial := int64(0); trial < 100; trial++ {
		if got, want := Sampled(trial, 10), trial%10 == 0; got != want {
			t.Fatalf("Sampled(%d, 10) = %v", trial, got)
		}
		if !Sampled(trial, 0) || !Sampled(trial, 1) {
			t.Fatalf("every <= 1 must select trial %d", trial)
		}
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Event(Event{Trial: 7, Kind: EvCkptCommit, Time: 12.5, Value: 20})
	s.Event(Event{Trial: 8, Kind: EvCrash, Time: 3, Value: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var e struct {
		Trial int64   `json:"trial"`
		Kind  string  `json:"kind"`
		Time  float64 `json:"t"`
		Value float64 `json:"v"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Trial != 7 || e.Kind != "ckpt_commit" || e.Time != 12.5 || e.Value != 20 {
		t.Errorf("decoded %+v", e)
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Event(Event{Kind: EvTaskEnd})
			}
		}()
	}
	wg.Wait()
	if c.Len() != 400 || len(c.Events()) != 400 {
		t.Errorf("collected %d events, want 400", c.Len())
	}
}
