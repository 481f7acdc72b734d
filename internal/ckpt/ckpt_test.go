package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"reskit/internal/obs"
)

func sampleState() *State {
	s := New(KindJobs, 0xfeedface, 42, 1000, 32)
	s.Blocks[0] = []byte("block-zero-partial")
	s.Blocks[3] = []byte("block-three-partial")
	s.Blocks[17] = []byte{0, 1, 2, 3, 255}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleState()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != s.Kind || got.Fingerprint != s.Fingerprint || got.Seed != s.Seed ||
		got.Trials != s.Trials || got.BlockSize != s.BlockSize || got.NumBlocks != s.NumBlocks {
		t.Errorf("header round trip: got %+v, want %+v", got, s)
	}
	if len(got.Blocks) != len(s.Blocks) {
		t.Fatalf("got %d blocks, want %d", len(got.Blocks), len(s.Blocks))
	}
	for b, p := range s.Blocks {
		if !bytes.Equal(got.Blocks[b], p) {
			t.Errorf("block %d payload = %q, want %q", b, got.Blocks[b], p)
		}
	}
}

func TestEncodeIsCanonical(t *testing.T) {
	// Same completed blocks, different insertion order -> same bytes.
	a := New(KindJobs, 1, 2, 10000, 2048)
	b := New(KindJobs, 1, 2, 10000, 2048)
	a.Blocks[0], a.Blocks[2], a.Blocks[4] = []byte("x"), []byte("y"), []byte("z")
	b.Blocks[4], b.Blocks[0], b.Blocks[2] = []byte("z"), []byte("x"), []byte("y")
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("encoding depends on insertion order")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := sampleState().Encode()
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(d []byte) []byte { return nil }, ErrNotSnapshot},
		{"short header", func(d []byte) []byte { return d[:20] }, ErrNotSnapshot},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, ErrNotSnapshot},
		{"future version", func(d []byte) []byte { d[4] = 99; return d }, ErrVersion},
		{"flipped payload bit", func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }, ErrCorrupt},
		{"flipped header bit", func(d []byte) []byte { d[13] ^= 0x80; return d }, ErrCorrupt},
		{"truncated tail", func(d []byte) []byte { return d[:len(d)-3] }, ErrCorrupt},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0xab) }, ErrCorrupt},
		// Kinds 1 and 2 (the retired sharded runners' snapshots) are
		// version skew, any other unknown kind is corruption — even
		// under a valid CRC.
		{"retired kind 1", withKind(1), ErrVersion},
		{"retired kind 2", withKind(2), ErrVersion},
		{"unknown kind 5", withKind(5), ErrCorrupt},
	}
	for _, tc := range cases {
		d := append([]byte(nil), good...)
		_, err := Decode(tc.mut(d))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.want)
		}
	}
}

// withKind rewrites a snapshot image's kind byte and re-seals the CRC.
func withKind(k Kind) func([]byte) []byte {
	return func(d []byte) []byte {
		d[12] = byte(k)
		binary.LittleEndian.PutUint32(d[8:12], crc32.ChecksumIEEE(d[12:]))
		return d
	}
}

func TestDecodeRejectsCRCMaskedInconsistency(t *testing.T) {
	// A structurally inconsistent state whose CRC is *valid* (the
	// attacker recomputed it) must still be rejected on the structural
	// checks: here NumBlocks disagreeing with trials/blockSize.
	s := sampleState()
	s.NumBlocks = 7 // truth is ceil(1000/32) = 32
	if _, err := Decode(s.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inconsistent geometry accepted (err=%v)", err)
	}

	s2 := sampleState()
	s2.Blocks[99] = []byte("beyond numblocks") // 99 >= 32
	if _, err := Decode(s2.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-range block accepted (err=%v)", err)
	}
}

func TestCheckMismatches(t *testing.T) {
	s := New(KindJobs, 10, 20, 1000, 32)
	if err := s.Check(KindJobs, 10, 20, 1000, 32); err != nil {
		t.Fatalf("matching state rejected: %v", err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"kind", s.Check(KindStream, 10, 20, 1000, 32)},
		{"fingerprint", s.Check(KindJobs, 11, 20, 1000, 32)},
		{"seed", s.Check(KindJobs, 10, 21, 1000, 32)},
		{"trials", s.Check(KindJobs, 10, 20, 999, 32)},
		{"blocksize", s.Check(KindJobs, 10, 20, 1000, 64)},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrMismatch) {
			t.Errorf("%s mismatch: error %v does not wrap ErrMismatch", tc.name, tc.err)
		}
	}
}

func TestLoadWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	s := sampleState()
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done() != s.Done() || got.Fingerprint != s.Fingerprint {
		t.Errorf("loaded state differs: %+v vs %+v", got, s)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestFingerprint(t *testing.T) {
	if Fingerprint("a", "bc") == Fingerprint("ab", "c") {
		t.Error("fingerprint ignores part boundaries")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Error("fingerprint not deterministic")
	}
	if Fingerprint("x") == Fingerprint("y") {
		t.Error("fingerprint collision on trivial input")
	}
}

func TestWriterThrottlesAndFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := NewWriter(path, time.Minute, New(KindJobs, 1, 2, 4096, 2048))
	clock := time.Unix(1000, 0)
	w.now = func() time.Time { return clock }
	w.last = clock // pretend a snapshot just happened: writes are throttled

	w.Commit(0, []byte("p0"))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("commit inside the interval must not write")
	}

	clock = clock.Add(2 * time.Minute)
	w.Commit(1, []byte("p1"))
	st, err := Load(path)
	if err != nil {
		t.Fatalf("interval elapsed but no valid snapshot: %v", err)
	}
	if st.Done() != 2 {
		t.Errorf("snapshot has %d blocks, want 2", st.Done())
	}

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Restore(0) == nil || w.Restore(99) != nil {
		t.Error("Restore: committed block missing or phantom block present")
	}
}

func TestWriterFinalFlushWritesPendingState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := NewWriter(path, time.Hour, New(KindJobs, 1, 2, 64, 32))
	w.Commit(1, []byte("pending"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Blocks[1], []byte("pending")) {
		t.Errorf("final flush lost the pending block: %+v", st.Blocks)
	}
}

func TestWriterInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := NewWriter(path, time.Hour, New(KindJobs, 1, 2, 64, 32))
	w.Instrument(reg)
	w.Commit(0, []byte("a"))
	w.Commit(1, []byte("b"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ckpt.blocks_committed"]; got != 2 {
		t.Errorf("ckpt.blocks_committed = %d, want 2", got)
	}
	if got := snap.Counters["ckpt.snapshots"]; got < 1 {
		t.Errorf("ckpt.snapshots = %d, want >= 1", got)
	}
	if got := snap.Gauges["ckpt.last_snapshot_unix"]; !(got > 0) {
		t.Errorf("ckpt.last_snapshot_unix = %g, want > 0", got)
	}
}

func TestWriterSurfacesDiskErrors(t *testing.T) {
	// Unwritable destination directory: Commit must not panic or block
	// the run; Flush reports the failure.
	w := NewWriter(filepath.Join(t.TempDir(), "no", "dir", "run.ckpt"), 0, New(KindJobs, 1, 2, 64, 32))
	w.last = time.Time{} // interval elapsed immediately
	w.Commit(0, []byte("a"))
	if err := w.Flush(); err == nil {
		t.Error("Flush should surface the write error")
	}
}
