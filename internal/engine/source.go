package engine

// JobSource is a lazy, possibly unbounded stream of jobs — the
// generalization of Spec.Jobs that RunStream drains. The engine never
// calls Next concurrently and calls it in index order (the i-th value
// returned is job i), so implementations need no locking and may derive
// each job from an internal counter. A source must be deterministic:
// resuming a run replays it from the start and expects the same jobs in
// the same order.
type JobSource interface {
	// Next returns the next job and true, or a zero Job and false once
	// the source is exhausted. After returning false, every later call
	// must return false too.
	Next() (Job, bool)
}

// SliceSource adapts a fixed job slice to a JobSource — the batch grid
// as a special case of the stream.
type SliceSource struct {
	jobs []Job
	next int
}

// NewSliceSource returns a source draining jobs in slice order.
func NewSliceSource(jobs []Job) *SliceSource { return &SliceSource{jobs: jobs} }

// Next implements JobSource.
func (s *SliceSource) Next() (Job, bool) {
	if s.next >= len(s.jobs) {
		return Job{}, false
	}
	j := s.jobs[s.next]
	s.next++
	return j, true
}

// SourceFunc adapts a function to a JobSource.
type SourceFunc func() (Job, bool)

// Next implements JobSource.
func (f SourceFunc) Next() (Job, bool) { return f() }
