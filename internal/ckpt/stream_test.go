package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestStreamStateRoundTrip: a frontier snapshot survives the wire
// format with its geometry re-read as frontier + sink state.
func TestStreamStateRoundTrip(t *testing.T) {
	s := NewStream(0xfeed, 7)
	if s.Frontier() != 0 {
		t.Errorf("fresh stream frontier = %d, want 0", s.Frontier())
	}
	s.SetStream(42, []byte("sink-state"))
	if s.Frontier() != 42 {
		t.Errorf("frontier = %d, want 42", s.Frontier())
	}
	if !bytes.Equal(s.StreamState(), []byte("sink-state")) {
		t.Errorf("sink state = %q", s.StreamState())
	}
	// A later frontier replaces, never accumulates.
	s.SetStream(50, []byte("later"))
	if s.Frontier() != 50 || len(s.Blocks) != 1 {
		t.Errorf("after second SetStream: frontier %d, %d blocks", s.Frontier(), len(s.Blocks))
	}

	path := filepath.Join(t.TempDir(), "stream.ckpt")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckStream(0xfeed, 7); err != nil {
		t.Fatalf("CheckStream on own snapshot: %v", err)
	}
	if got.Frontier() != 50 || !bytes.Equal(got.StreamState(), []byte("later")) {
		t.Errorf("loaded frontier %d state %q, want 50 %q", got.Frontier(), got.StreamState(), "later")
	}
}

// TestFrontierOtherKinds: Frontier is meaningful only for stream
// snapshots; any other kind reports 0 regardless of its trial count.
func TestFrontierOtherKinds(t *testing.T) {
	s := New(KindJobs, 1, 2, 4096, 32)
	if s.Frontier() != 0 {
		t.Errorf("jobs snapshot frontier = %d, want 0", s.Frontier())
	}
}

// TestCheckStreamMismatches: every identity disagreement wraps
// ErrMismatch, and a stream snapshot without a sink state is corrupt.
func TestCheckStreamMismatches(t *testing.T) {
	good := func() *State {
		s := NewStream(0xfeed, 7)
		s.SetStream(10, []byte("x"))
		return s
	}
	cases := []struct {
		name string
		s    *State
		want error
	}{
		{"wrong kind", New(KindJobs, 0xfeed, 7, 10, 1), ErrMismatch},
		{"wrong fingerprint", func() *State { s := good(); s.Fingerprint = 0xdead; return s }(), ErrMismatch},
		{"wrong seed", func() *State { s := good(); s.Seed = 8; return s }(), ErrMismatch},
		{"zero frontier", NewStream(0xfeed, 7), ErrCorrupt},
		{"empty sink state", func() *State { s := good(); s.Blocks[0] = nil; return s }(), ErrCorrupt},
	}
	for _, tc := range cases {
		if err := tc.s.CheckStream(0xfeed, 7); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := good().CheckStream(0xfeed, 7); err != nil {
		t.Errorf("matching snapshot rejected: %v", err)
	}
}

// TestWriterCommitStreamThrottles: CommitStream obeys the same write
// throttle as Commit, and Due mirrors it so streaming engines can skip
// materializing sink state for commits that would not be persisted.
func TestWriterCommitStreamThrottles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	w := NewWriter(path, time.Minute, NewStream(0xfeed, 7))
	clock := time.Unix(1000, 0)
	w.now = func() time.Time { return clock }
	w.last = clock // pretend a snapshot just happened: writes are throttled

	if w.Due() {
		t.Fatal("Due inside the interval")
	}
	w.CommitStream(3, []byte("s3"))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("commit inside the interval must not write")
	}

	clock = clock.Add(2 * time.Minute)
	if !w.Due() {
		t.Fatal("Due after the interval elapsed")
	}
	w.CommitStream(9, []byte("s9"))
	st, err := Load(path)
	if err != nil {
		t.Fatalf("interval elapsed but no valid snapshot: %v", err)
	}
	if st.Frontier() != 9 || !bytes.Equal(st.StreamState(), []byte("s9")) {
		t.Errorf("snapshot frontier %d state %q, want 9 %q", st.Frontier(), st.StreamState(), "s9")
	}

	// A final flush persists the last frontier even inside the throttle.
	w.CommitStream(11, []byte("s11"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frontier() != 11 {
		t.Errorf("flushed frontier = %d, want 11", st.Frontier())
	}
	if err := st.CheckStream(0xfeed, 7); err != nil {
		t.Errorf("flushed snapshot fails its own check: %v", err)
	}
}
