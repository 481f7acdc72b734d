// Package benchkit is the measurement and regression-gate layer behind
// every BENCH_*.json snapshot in the repository: versioned snapshot
// schema, min-of-N timing with allocation accounting, environment
// capture (git SHA, Go version, GOMAXPROCS), and a drift comparator
// that make `make benchcheck` fail when a fresh run regresses against
// the committed snapshot.
//
// The gate distinguishes machine-dependent from machine-independent
// numbers. ns/trial varies across hosts, so its threshold is
// configurable (loose in CI, tighter on a dedicated box); allocs/trial
// and the bit-identical-across-workers flag are properties of the code
// alone, so their gates are tight everywhere.
package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"reskit/internal/atomicio"
)

// SchemaVersion identifies the snapshot layout. Version 1 was the
// loose, header-free format of the early BENCH_*.json files; version 2
// adds the environment header, min-of-N discipline and per-worker rows.
const SchemaVersion = 2

// Result is one benchmark measurement: a named workload at a fixed
// trial count and worker count.
type Result struct {
	// Name identifies the workload ("campaign/norm", "preempt", ...).
	Name string `json:"benchmark"`
	// Workers is the worker count the workload ran with (0 means the
	// workload has no worker dimension).
	Workers int `json:"workers,omitempty"`
	// Trials is the per-repetition trial count.
	Trials int64 `json:"trials"`
	// Reps is the number of repetitions; the numbers below are from
	// the fastest repetition (min-of-N rejects scheduler noise, which
	// is always additive).
	Reps int `json:"reps"`
	// NsPerTrial is minimum wall nanoseconds divided by Trials.
	NsPerTrial float64 `json:"ns_per_trial"`
	// TrialsPerSec is the throughput of the fastest repetition.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// AllocsPerTrial and BytesPerTrial are heap allocation counts from
	// the repetition that allocated least (GC noise is additive too).
	AllocsPerTrial float64 `json:"allocs_per_trial"`
	BytesPerTrial  float64 `json:"bytes_per_trial"`
	// SpeedupVs1Worker is NsPerTrial(1 worker) / NsPerTrial(this row),
	// filled by callers that sweep workers through Speedup; 0 when not
	// applicable or when the host has fewer CPUs than Workers.
	SpeedupVs1Worker float64 `json:"speedup_vs_1_worker,omitempty"`
	// BitIdenticalAcrossWorkers records that the workload re-ran at
	// every swept worker count produced byte-identical aggregates.
	// nil means the check does not apply to this workload.
	BitIdenticalAcrossWorkers *bool `json:"bit_identical_across_workers,omitempty"`
	// StopReason records why an open-ended (streaming) workload ended:
	// "ci target met", "trial budget exhausted", or an interruption
	// marker. Empty for fixed-trial-count workloads.
	StopReason string `json:"stop_reason,omitempty"`
	// Metrics carries workload-specific extras (engine ns/job
	// quantiles, jobs/sec) shared verbatim with -metrics output.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Key identifies a result row within a snapshot for comparison.
func (r Result) Key() string {
	if r.Workers == 0 {
		return r.Name
	}
	return fmt.Sprintf("%s@w%d", r.Name, r.Workers)
}

// Speedup returns ns1/ns, the speedup of a row timed at `workers`
// workers over the 1-worker row's ns1 ns/trial. It returns 0, which
// leaves Result.SpeedupVs1Worker out of the snapshot, when the host has
// fewer CPUs than workers: such a row measures oversubscription of the
// host, not parallel speedup.
func Speedup(ns1, ns float64, workers int) float64 {
	if !(ns > 0) || runtime.NumCPU() < workers {
		return 0
	}
	return ns1 / ns
}

// Header is the environment block every benchmark artifact carries:
// schema version, generation time, and the machine/toolchain facts a
// reader needs to judge whether two snapshots are comparable. It is
// embedded by Snapshot and reusable by other benchmark-shaped files
// (the fault-sweep snapshot embeds it around its own row type).
type Header struct {
	SchemaVersion int    `json:"schema_version"`
	Generated     string `json:"generated"` // RFC3339
	GitSHA        string `json:"git_sha,omitempty"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
}

// NewHeader captures the current environment.
func NewHeader() Header {
	return Header{
		SchemaVersion: SchemaVersion,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GitSHA:        GitSHA(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
	}
}

// Snapshot is a full benchmark run: environment header plus results.
type Snapshot struct {
	Header
	Results []Result `json:"results"`
}

// NewSnapshot returns a snapshot with the environment header filled in.
func NewSnapshot() *Snapshot {
	return &Snapshot{Header: NewHeader()}
}

// GitSHA returns the abbreviated commit hash of the working tree, or ""
// when git (or the repository) is unavailable — snapshots must still be
// producible from an export tarball.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Write stores the snapshot as indented JSON via write-temp-fsync-rename
// so an interrupted run can never truncate a committed snapshot.
func (s *Snapshot) Write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("benchkit: encoding snapshot: %w", err)
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a snapshot written by Write.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchkit: decoding %s: %w", path, err)
	}
	return &s, nil
}

// Timing is the measurement of one workload by MinOf.
type Timing struct {
	MinNs          int64  // fastest repetition, wall nanoseconds
	MinAllocs      uint64 // least-allocating repetition, heap objects
	MinBytes       uint64 // least-allocating repetition, heap bytes
	Reps           int    // repetitions performed
	Trials         int64  // trials per repetition
	NsPerTrial     float64
	TrialsPerSec   float64
	AllocsPerTrial float64
	BytesPerTrial  float64
}

// MinOf runs fn reps times (at least once) against a workload of
// `trials` trials and keeps the minimum wall time and minimum
// allocation deltas across repetitions: noise from scheduling, GC and
// cache warm-up only ever adds, so the minimum is the honest estimate
// of the workload's cost.
func MinOf(reps int, trials int64, fn func()) Timing {
	if reps < 1 {
		reps = 1
	}
	t := Timing{MinNs: 1<<63 - 1, MinAllocs: ^uint64(0), MinBytes: ^uint64(0), Reps: reps, Trials: trials}
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn()
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		if ns < t.MinNs {
			t.MinNs = ns
		}
		if d := after.Mallocs - before.Mallocs; d < t.MinAllocs {
			t.MinAllocs = d
		}
		if d := after.TotalAlloc - before.TotalAlloc; d < t.MinBytes {
			t.MinBytes = d
		}
	}
	if trials > 0 {
		t.NsPerTrial = float64(t.MinNs) / float64(trials)
		t.AllocsPerTrial = float64(t.MinAllocs) / float64(trials)
		t.BytesPerTrial = float64(t.MinBytes) / float64(trials)
	}
	if t.MinNs > 0 {
		t.TrialsPerSec = float64(trials) / (float64(t.MinNs) / 1e9)
	}
	return t
}

// Result converts the timing into a snapshot row.
func (t Timing) Result(name string, workers int) Result {
	return Result{
		Name:           name,
		Workers:        workers,
		Trials:         t.Trials,
		Reps:           t.Reps,
		NsPerTrial:     t.NsPerTrial,
		TrialsPerSec:   t.TrialsPerSec,
		AllocsPerTrial: t.AllocsPerTrial,
		BytesPerTrial:  t.BytesPerTrial,
	}
}

// CompareOpts tunes the drift gate.
type CompareOpts struct {
	// NsDriftPct fails rows whose ns_per_trial regressed by more than
	// this percentage over the committed snapshot. ns/trial depends on
	// the host, so CI sets this loose (see BENCH_DRIFT_PCT); 0 means
	// the DefaultNsDriftPct.
	NsDriftPct float64
	// AllocDriftAbs fails rows whose allocs_per_trial grew by more
	// than this absolute amount. Allocation counts are
	// machine-independent, so the default gate is tight.
	AllocDriftAbs float64
	// AllowMissing skips rows of the committed snapshot with no
	// counterpart in the fresh run instead of failing them. The
	// default (false) treats a vanished benchmark as drift.
	AllowMissing bool
}

// DefaultNsDriftPct is the local-run timing gate. Same-machine
// min-of-N timings of these workloads are repeatable to a few percent;
// 30% only trips on real regressions.
const DefaultNsDriftPct = 30

// DefaultAllocDriftAbs tolerates sub-integer accounting jitter (pool
// refills, map growth) without letting a real per-trial allocation in.
const DefaultAllocDriftAbs = 0.5

// NsDriftPctFromEnv reads the BENCH_DRIFT_PCT override, falling back
// to DefaultNsDriftPct when unset or unparseable.
func NsDriftPctFromEnv() float64 {
	if v := os.Getenv("BENCH_DRIFT_PCT"); v != "" {
		if pct, err := strconv.ParseFloat(v, 64); err == nil && pct > 0 {
			return pct
		}
	}
	return DefaultNsDriftPct
}

// Compare diffs a fresh snapshot against the committed baseline and
// returns one message per drifting row, sorted for stable output. An
// empty slice means the gate passes.
func Compare(baseline, fresh *Snapshot, opts CompareOpts) []string {
	if opts.NsDriftPct <= 0 {
		opts.NsDriftPct = DefaultNsDriftPct
	}
	if opts.AllocDriftAbs <= 0 {
		opts.AllocDriftAbs = DefaultAllocDriftAbs
	}
	var drifts []string
	if baseline.SchemaVersion != fresh.SchemaVersion {
		drifts = append(drifts, fmt.Sprintf("schema version changed: committed %d, fresh %d (refresh the snapshot intentionally)",
			baseline.SchemaVersion, fresh.SchemaVersion))
		return drifts
	}
	freshByKey := make(map[string]Result, len(fresh.Results))
	for _, r := range fresh.Results {
		freshByKey[r.Key()] = r
	}
	for _, old := range baseline.Results {
		now, ok := freshByKey[old.Key()]
		if !ok {
			if !opts.AllowMissing {
				drifts = append(drifts, fmt.Sprintf("%s: benchmark missing from fresh run", old.Key()))
			}
			continue
		}
		if old.NsPerTrial > 0 && now.NsPerTrial > old.NsPerTrial*(1+opts.NsDriftPct/100) {
			drifts = append(drifts, fmt.Sprintf("%s: ns/trial %.4g -> %.4g (+%.1f%%, gate %.0f%%)",
				old.Key(), old.NsPerTrial, now.NsPerTrial,
				100*(now.NsPerTrial/old.NsPerTrial-1), opts.NsDriftPct))
		}
		if now.AllocsPerTrial > old.AllocsPerTrial+opts.AllocDriftAbs {
			drifts = append(drifts, fmt.Sprintf("%s: allocs/trial %.4g -> %.4g (gate +%.2g)",
				old.Key(), old.AllocsPerTrial, now.AllocsPerTrial, opts.AllocDriftAbs))
		}
		if old.BitIdenticalAcrossWorkers != nil && *old.BitIdenticalAcrossWorkers &&
			(now.BitIdenticalAcrossWorkers == nil || !*now.BitIdenticalAcrossWorkers) {
			drifts = append(drifts, fmt.Sprintf("%s: bit_identical_across_workers no longer true", old.Key()))
		}
	}
	sort.Strings(drifts)
	return drifts
}
