package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reskit/internal/obs"
)

func sampleState() *State {
	s := New(0xfeedface, 42, 32)
	s.Records[0] = []byte("block-zero-partial")
	s.Records[3] = []byte("block-three-partial")
	s.Records[17] = []byte{0, 1, 2, 3, 255}
	return s
}

// v1Image assembles a version 1 snapshot image of the given kind — the
// retired per-kind layout, which Decode must refuse with ErrVersion: a
// 57-byte header (magic, version, CRC, kind, fingerprint, seed, trials,
// block size, block count, completed count) and one completed block.
func v1Image(kind byte) []byte {
	le := binary.LittleEndian
	d := append([]byte("RKCP"), 1, 0, 0, 0, 0, 0, 0, 0, kind)
	for _, v := range []uint64{0xfeedface, 42, 4, 1, 4} {
		d = le.AppendUint64(d, v)
	}
	d = le.AppendUint32(d, 1)
	d = le.AppendUint32(d, 0)
	d = le.AppendUint32(d, 3)
	d = append(d, "abc"...)
	le.PutUint32(d[8:12], crc32.ChecksumIEEE(d[12:]))
	return d
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleState()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != s.Fingerprint || got.Seed != s.Seed ||
		got.Jobs != s.Jobs || got.Frontier != s.Frontier || len(got.Sink) != 0 {
		t.Errorf("header round trip: got %+v, want %+v", got, s)
	}
	if len(got.Records) != len(s.Records) {
		t.Fatalf("got %d blocks, want %d", len(got.Records), len(s.Records))
	}
	for b, p := range s.Records {
		if !bytes.Equal(got.Records[b], p) {
			t.Errorf("block %d payload = %q, want %q", b, got.Records[b], p)
		}
	}
}

func TestEncodeIsCanonical(t *testing.T) {
	// Same completed blocks, different insertion order -> same bytes.
	a := New(1, 2, 5)
	b := New(1, 2, 5)
	a.Records[0], a.Records[2], a.Records[4] = []byte("x"), []byte("y"), []byte("z")
	b.Records[4], b.Records[0], b.Records[2] = []byte("z"), []byte("x"), []byte("y")
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
		// Every version 1 image — the retired sharded runners' kinds 1
		// and 2, job grids (3) and stream frontiers (4), or any other
		// kind byte — is version skew, even under a valid CRC.
		{"v1 kind 1", v1(1), ErrVersion},
		{"v1 kind 2", v1(2), ErrVersion},
		{"v1 jobs kind 3", v1(3), ErrVersion},
		{"v1 stream kind 4", v1(4), ErrVersion},
		{"v1 unknown kind 5", v1(5), ErrVersion},
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

// v1 replaces the image under test with a version 1 image of kind k.
func v1(k byte) func([]byte) []byte {
	return func([]byte) []byte { return v1Image(k) }
}

func TestDecodeRejectsCRCMaskedInconsistency(t *testing.T) {
	// A structurally inconsistent state whose CRC is *valid* (the
	// attacker recomputed it) must still be rejected on the structural
	// checks: here a frontier with no sink state to resume from.
	s := NewStream(0xfeedface, 42)
	s.Frontier = 7
	if _, err := Decode(s.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inconsistent frontier accepted (err=%v)", err)
	}

	s2 := sampleState()
	s2.Records[99] = []byte("beyond the job count") // 99 >= 32
	if _, err := Decode(s2.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-range block accepted (err=%v)", err)
	}
}

func TestCheckMismatches(t *testing.T) {
	s := New(10, 20, 1000)
	if err := s.Check(10, 20, 1000); err != nil {
		t.Fatalf("matching state rejected: %v", err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"stream run", s.Check(10, 20, 0)},
		{"fingerprint", s.Check(11, 20, 1000)},
		{"seed", s.Check(10, 21, 1000)},
		{"jobs", s.Check(10, 20, 999)},
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
	w := NewWriter(path, time.Minute, New(1, 2, 2))
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
	if rec := w.State().Records; rec[0] == nil || rec[99] != nil {
		t.Error("Restore: committed block missing or phantom block present")
	}
}

func TestWriterFinalFlushWritesPendingState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := NewWriter(path, time.Hour, New(1, 2, 2))
	w.Commit(1, []byte("pending"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Records[1], []byte("pending")) {
		t.Errorf("final flush lost the pending block: %+v", st.Records)
	}
}

func TestWriterInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := NewWriter(path, time.Hour, New(1, 2, 2))
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
	w := NewWriter(filepath.Join(t.TempDir(), "no", "dir", "run.ckpt"), 0, New(1, 2, 2))
	w.last = time.Time{} // interval elapsed immediately
	w.Commit(0, []byte("a"))
	if err := w.Flush(); err == nil {
		t.Error("Flush should surface the write error")
	}
}

// TestDecodeNamesRecordBound: a record over MaxPayload is refused with
// an error naming the bound — even when the file does hold that many
// bytes — rather than a misleading "overruns the file".
func TestDecodeNamesRecordBound(t *testing.T) {
	s := New(1, 2, 4)
	s.Records[1] = make([]byte, MaxPayload+1)
	_, err := Decode(s.Encode())
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "exceed the 1048576-byte record bound") {
		t.Fatalf("oversized record: err = %v, want ErrCorrupt naming the bound", err)
	}
	stream := NewStream(1, 2)
	stream.Frontier, stream.Sink = 3, make([]byte, MaxPayload+1)
	if _, err := Decode(stream.Encode()); err == nil || !strings.Contains(err.Error(), "sink state: 1048577 bytes exceed the 1048576-byte record bound") {
		t.Fatalf("oversized sink state: err = %v, want the bound named", err)
	}
}
