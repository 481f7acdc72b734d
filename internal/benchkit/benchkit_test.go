package benchkit

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMinOfBasics(t *testing.T) {
	calls := 0
	tm := MinOf(5, 1000, func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	if calls != 5 {
		t.Fatalf("MinOf ran fn %d times, want 5", calls)
	}
	if tm.MinNs < int64(time.Millisecond) {
		t.Errorf("MinNs = %d, below the 1ms the workload sleeps", tm.MinNs)
	}
	if tm.NsPerTrial <= 0 || tm.TrialsPerSec <= 0 {
		t.Errorf("per-trial numbers not derived: %+v", tm)
	}
	if tm.Reps != 5 || tm.Trials != 1000 {
		t.Errorf("rep/trial bookkeeping wrong: %+v", tm)
	}
	if r := MinOf(0, 10, func() { calls++ }); r.Reps != 1 {
		t.Errorf("MinOf(0, ...) must clamp to one rep, got %d", r.Reps)
	}
}

func TestMinOfAllocAccounting(t *testing.T) {
	var sink []byte
	tm := MinOf(3, 100, func() {
		sink = make([]byte, 1<<20)
	})
	_ = sink
	if tm.MinBytes < 1<<20 {
		t.Errorf("MinBytes = %d, want >= 1MiB for a 1MiB-per-rep workload", tm.MinBytes)
	}
	if tm.AllocsPerTrial <= 0 {
		t.Errorf("AllocsPerTrial = %g, want > 0", tm.AllocsPerTrial)
	}
}

func TestSpeedupNeedsTheCores(t *testing.T) {
	n := runtime.NumCPU()
	if got := Speedup(40, 10, n); got != 4 {
		t.Errorf("Speedup(40, 10, NumCPU) = %g, want 4", got)
	}
	if got := Speedup(40, 10, n+1); got != 0 {
		t.Errorf("Speedup at %d workers on %d CPUs = %g, want 0 (omitted)", n+1, n, got)
	}
	if got := Speedup(40, 0, 1); got != 0 {
		t.Errorf("Speedup of an untimed row = %g, want 0", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	s := NewSnapshot()
	if s.SchemaVersion != SchemaVersion || s.GoVersion == "" || s.GoMaxProcs < 1 {
		t.Fatalf("NewSnapshot header incomplete: %+v", s)
	}
	yes := true
	s.Results = []Result{
		{Name: "campaign/norm", Workers: 1, Trials: 1000000, Reps: 5, NsPerTrial: 100, AllocsPerTrial: 0, BitIdenticalAcrossWorkers: &yes},
		{Name: "campaign/norm", Workers: 4, Trials: 1000000, Reps: 5, NsPerTrial: 30, SpeedupVs1Worker: 3.33},
	}
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 || got.Results[0].Key() != "campaign/norm@w1" {
		t.Fatalf("round trip mangled results: %+v", got.Results)
	}
	if got.Results[0].BitIdenticalAcrossWorkers == nil || !*got.Results[0].BitIdenticalAcrossWorkers {
		t.Error("bit_identical flag lost in round trip")
	}
}

// TestCompareFailsOnDrift is the demonstrated-failure requirement of
// the perf gate: a fresh snapshot with >N% ns/trial drift, an
// allocation regression, a lost bit-identity flag, or a vanished row
// must each produce a drift message.
func TestCompareFailsOnDrift(t *testing.T) {
	yes := true
	base := &Snapshot{Header: Header{SchemaVersion: SchemaVersion}, Results: []Result{
		{Name: "campaign/norm", Workers: 1, NsPerTrial: 100, AllocsPerTrial: 0, BitIdenticalAcrossWorkers: &yes},
		{Name: "preempt", Workers: 1, NsPerTrial: 50},
	}}

	// Identical run: gate passes.
	if d := Compare(base, base, CompareOpts{NsDriftPct: 20}); len(d) != 0 {
		t.Fatalf("identical snapshots drifted: %v", d)
	}
	// Within threshold: passes.
	ok := &Snapshot{Header: Header{SchemaVersion: SchemaVersion}, Results: []Result{
		{Name: "campaign/norm", Workers: 1, NsPerTrial: 110, BitIdenticalAcrossWorkers: &yes},
		{Name: "preempt", Workers: 1, NsPerTrial: 55},
	}}
	if d := Compare(base, ok, CompareOpts{NsDriftPct: 20}); len(d) != 0 {
		t.Fatalf("within-threshold run drifted: %v", d)
	}

	// >20% slower: fails.
	slow := &Snapshot{Header: Header{SchemaVersion: SchemaVersion}, Results: []Result{
		{Name: "campaign/norm", Workers: 1, NsPerTrial: 130, BitIdenticalAcrossWorkers: &yes},
		{Name: "preempt", Workers: 1, NsPerTrial: 50},
	}}
	d := Compare(base, slow, CompareOpts{NsDriftPct: 20})
	if len(d) != 1 || !strings.Contains(d[0], "ns/trial") {
		t.Fatalf("30%% regression not caught: %v", d)
	}

	// New steady-state allocation: fails even when timing is fine.
	leaky := &Snapshot{Header: Header{SchemaVersion: SchemaVersion}, Results: []Result{
		{Name: "campaign/norm", Workers: 1, NsPerTrial: 100, AllocsPerTrial: 3, BitIdenticalAcrossWorkers: &yes},
		{Name: "preempt", Workers: 1, NsPerTrial: 50},
	}}
	d = Compare(base, leaky, CompareOpts{NsDriftPct: 20})
	if len(d) != 1 || !strings.Contains(d[0], "allocs/trial") {
		t.Fatalf("allocation regression not caught: %v", d)
	}

	// Lost determinism flag: fails.
	nondet := &Snapshot{Header: Header{SchemaVersion: SchemaVersion}, Results: []Result{
		{Name: "campaign/norm", Workers: 1, NsPerTrial: 100},
		{Name: "preempt", Workers: 1, NsPerTrial: 50},
	}}
	d = Compare(base, nondet, CompareOpts{NsDriftPct: 20})
	if len(d) != 1 || !strings.Contains(d[0], "bit_identical") {
		t.Fatalf("lost bit-identity not caught: %v", d)
	}

	// Vanished benchmark: fails unless AllowMissing.
	partial := &Snapshot{Header: Header{SchemaVersion: SchemaVersion}, Results: base.Results[:1]}
	if d = Compare(base, partial, CompareOpts{NsDriftPct: 20}); len(d) != 1 || !strings.Contains(d[0], "missing") {
		t.Fatalf("missing row not caught: %v", d)
	}
	if d = Compare(base, partial, CompareOpts{NsDriftPct: 20, AllowMissing: true}); len(d) != 0 {
		t.Fatalf("AllowMissing still drifted: %v", d)
	}

	// Schema change is always drift.
	v1 := &Snapshot{Header: Header{SchemaVersion: 1}, Results: base.Results}
	if d = Compare(v1, base, CompareOpts{}); len(d) != 1 || !strings.Contains(d[0], "schema") {
		t.Fatalf("schema change not caught: %v", d)
	}
}

func TestNsDriftPctFromEnv(t *testing.T) {
	t.Setenv("BENCH_DRIFT_PCT", "")
	if got := NsDriftPctFromEnv(); got != DefaultNsDriftPct {
		t.Errorf("default = %g, want %g", got, float64(DefaultNsDriftPct))
	}
	t.Setenv("BENCH_DRIFT_PCT", "250")
	if got := NsDriftPctFromEnv(); got != 250 {
		t.Errorf("override = %g, want 250", got)
	}
	t.Setenv("BENCH_DRIFT_PCT", "junk")
	if got := NsDriftPctFromEnv(); got != DefaultNsDriftPct {
		t.Errorf("junk fallback = %g, want %g", got, float64(DefaultNsDriftPct))
	}
}
