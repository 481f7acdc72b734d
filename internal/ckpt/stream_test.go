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
// format with its frontier and sink state.
func TestStreamStateRoundTrip(t *testing.T) {
	s := NewStream(0xfeed, 7)
	if s.Frontier != 0 {
		t.Errorf("fresh stream frontier = %d, want 0", s.Frontier)
	}
	s.Frontier, s.Sink = 42, []byte("sink-state")
	if s.Frontier != 42 {
		t.Errorf("frontier = %d, want 42", s.Frontier)
	}
	if !bytes.Equal(s.Sink, []byte("sink-state")) {
		t.Errorf("sink state = %q", s.Sink)
	}
	// A later frontier replaces, never accumulates.
	s.Frontier, s.Sink = 50, []byte("later")
	if s.Frontier != 50 || len(s.Records) != 0 {
		t.Errorf("after second frontier: frontier %d, %d records", s.Frontier, len(s.Records))
	}

	path := filepath.Join(t.TempDir(), "stream.ckpt")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(0xfeed, 7, 0); err != nil {
		t.Fatalf("Check on own snapshot: %v", err)
	}
	if got.Frontier != 50 || !bytes.Equal(got.Sink, []byte("later")) {
		t.Errorf("loaded frontier %d state %q, want 50 %q", got.Frontier, got.Sink, "later")
	}
}

// TestFrontierOtherKinds: a grid snapshot carries no frontier, and
// Decode refuses one that claims a frontier — only open-ended streams
// fold.
func TestFrontierOtherKinds(t *testing.T) {
	s := New(1, 2, 128)
	if s.Frontier != 0 {
		t.Errorf("jobs snapshot frontier = %d, want 0", s.Frontier)
	}
	s.Frontier, s.Sink = 3, []byte("x")
	if _, err := Decode(s.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("grid snapshot with a frontier: err = %v, want ErrCorrupt", err)
	}
}

// TestCheckStreamMismatches: every identity disagreement wraps
// ErrMismatch, and a stream snapshot with a frontier but no sink state
// (or a sink state but no frontier) is corrupt.
func TestCheckStreamMismatches(t *testing.T) {
	good := func() *State {
		s := NewStream(0xfeed, 7)
		s.Frontier, s.Sink = 10, []byte("x")
		return s
	}
	cases := []struct {
		name string
		s    *State
		want error
	}{
		{"wrong kind", New(0xfeed, 7, 10), ErrMismatch},
		{"wrong fingerprint", func() *State { s := good(); s.Fingerprint = 0xdead; return s }(), ErrMismatch},
		{"wrong seed", func() *State { s := good(); s.Seed = 8; return s }(), ErrMismatch},
		{"zero frontier", func() *State { s := good(); s.Frontier = 0; return s }(), ErrCorrupt},
		{"empty sink state", func() *State { s := good(); s.Sink = nil; return s }(), ErrCorrupt},
	}
	for _, tc := range cases {
		st, err := Decode(tc.s.Encode())
		if err == nil {
			err = st.Check(0xfeed, 7, 0)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := good().Check(0xfeed, 7, 0); err != nil {
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
	if st.Frontier != 9 || !bytes.Equal(st.Sink, []byte("s9")) {
		t.Errorf("snapshot frontier %d state %q, want 9 %q", st.Frontier, st.Sink, "s9")
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
	if st.Frontier != 11 {
		t.Errorf("flushed frontier = %d, want 11", st.Frontier)
	}
	if err := st.Check(0xfeed, 7, 0); err != nil {
		t.Errorf("flushed snapshot fails its own check: %v", err)
	}
}
