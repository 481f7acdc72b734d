package engine

import (
	"context"
	"testing"

	"reskit/internal/rng"
)

// noopJobs returns n jobs that do nothing: a run of them costs exactly
// the loop's own per-job overhead.
func noopJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Stream: uint64(i), Run: func(context.Context, *rng.Source) (JobResult, error) {
			return JobResult{}, nil
		}}
	}
	return jobs
}

// nopSink folds nothing.
type nopSink struct{}

func (nopSink) Commit(int, []byte) (bool, error) { return false, nil }
func (nopSink) State() ([]byte, error)           { return []byte{0}, nil }
func (nopSink) Restore([]byte) error             { return nil }

// TestRunLoopAllocatesNothingPerJob pins the loop's per-job cost at
// zero heap allocations, for the sinkless and the folding case alike:
// a 2000-job run allocates exactly as much as a 1000-job run.
func TestRunLoopAllocatesNothingPerJob(t *testing.T) {
	small, large := noopJobs(1000), noopJobs(2000)
	grid := func(jobs []Job) func() {
		return func() {
			if _, err := Run(context.Background(), Spec{Jobs: jobs, Seed: 1, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream := func(jobs []Job) func() {
		return func() {
			_, err := RunStream(context.Background(), StreamSpec{
				Source: NewSliceSource(jobs), Sink: nopSink{}, Seed: 1, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func([]Job) func()
	}{{"Run", grid}, {"RunStream", stream}} {
		perJob := testing.AllocsPerRun(20, tc.run(large)) - testing.AllocsPerRun(20, tc.run(small))
		if perJob != 0 {
			t.Errorf("%s: a 2000-job run allocates %v more than a 1000-job run, want 0", tc.name, perJob)
		}
	}
}

// BenchmarkRunTrivialGrid measures the loop's per-job overhead: a grid
// of 2500 no-op jobs on one worker, reported in ns/job.
func BenchmarkRunTrivialGrid(b *testing.B) {
	const n = 2500
	spec := Spec{Jobs: noopJobs(n), Seed: 1, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/job")
}
