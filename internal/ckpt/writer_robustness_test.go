package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"reskit/internal/atomicio"
	"reskit/internal/obs"
)

// flakyInjector fails the first `failures` OpWrite consultations on
// paths under prefix, then heals.
type flakyInjector struct {
	prefix   string
	failures int
}

func (f *flakyInjector) Fault(op atomicio.Op, path string, n int) (int, error) {
	if op != atomicio.OpWrite || !strings.HasPrefix(path, f.prefix) {
		return 0, nil
	}
	if f.failures > 0 {
		f.failures--
		return 0, syscall.ENOSPC
	}
	return 0, nil
}

func TestWriterRotatesGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := NewWriter(path, time.Hour, New(1, 2, 2))

	w.Commit(0, []byte("a"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(PrevGeneration(path)); !os.IsNotExist(err) {
		t.Fatal("first snapshot must not create a previous generation")
	}

	w.Commit(1, []byte("b"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	head, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Load(PrevGeneration(path))
	if err != nil {
		t.Fatalf("rotated generation unreadable: %v", err)
	}
	if head.Done() != 2 || prev.Done() != 1 {
		t.Fatalf("head holds %d blocks, prev %d; want 2 and 1", head.Done(), prev.Done())
	}
	if !bytes.Equal(prev.Records[0], []byte("a")) || prev.Records[1] != nil {
		t.Fatalf("previous generation is not the pre-rotation state: %+v", prev.Records)
	}
}

// The dirty-retry contract: a failed snapshot write keeps the state in
// memory, counts on ckpt.write_errors, logs the first failure once, and
// the next write retries — so a healed disk yields a durable final
// snapshot while Err still reports the mid-run failure.
func TestWriterDirtyRetryAfterWriteFailure(t *testing.T) {
	defer atomicio.SetInjector(nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	atomicio.SetInjector(&flakyInjector{prefix: dir, failures: 2})

	reg := obs.NewRegistry()
	var log bytes.Buffer
	w := NewWriter(path, 0, New(1, 2, 2))
	w.last = time.Time{} // interval elapsed: every Commit attempts a write
	w.Instrument(reg)
	w.LogTo(&log)

	w.Commit(0, []byte("a")) // write fails, state dirty
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed write left a head snapshot behind")
	}
	if w.Err() == nil {
		t.Fatal("Err must report the failed write immediately")
	}
	firstErr := w.Err()
	if got := log.String(); strings.Count(got, "snapshot write failed") != 1 {
		t.Fatalf("first failure not logged exactly once: %q", got)
	}

	w.last = time.Time{}     // defeat the throttle: attempt another write now
	w.Commit(1, []byte("b")) // second failure: counted, not re-logged
	if got := log.String(); strings.Count(got, "snapshot write failed") != 1 {
		t.Fatalf("later failures must not spam the log: %q", got)
	}
	if got := reg.Snapshot().Counters["ckpt.write_errors"]; got != 2 {
		t.Fatalf("ckpt.write_errors = %d, want 2", got)
	}

	// Disk heals: the retry on the next commit writes everything that
	// accumulated in memory, and Flush reports a durable state.
	w.last = time.Time{}
	w.Commit(0, []byte("a2"))
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Records[0], []byte("a2")) || !bytes.Equal(st.Records[1], []byte("b")) {
		t.Fatalf("healed snapshot lost state: %+v", st.Records)
	}
	// Err keeps the first lifetime error even after recovery.
	if w.Err() != firstErr {
		t.Fatalf("Err = %v, want the first error retained (%v)", w.Err(), firstErr)
	}
}

func TestWriterFlushReportsStaleStateWhileDiskDead(t *testing.T) {
	defer atomicio.SetInjector(nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	atomicio.SetInjector(&flakyInjector{prefix: dir, failures: 1 << 30})

	w := NewWriter(path, time.Hour, New(1, 2, 2))
	w.Commit(0, []byte("a"))
	if err := w.Flush(); err == nil {
		t.Fatal("Flush must fail while the state cannot reach disk")
	}
	if w.Err() == nil {
		t.Fatal("Err must report the failure")
	}
}

// A write failure mid-sequence must leave the rotated previous
// generation as the best on-disk state, which Load can still use.
func TestWriterFailedWriteFallsBackToRotatedGeneration(t *testing.T) {
	defer atomicio.SetInjector(nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	w := NewWriter(path, 0, New(1, 2, 2))
	w.last = time.Time{}
	w.Commit(0, []byte("good"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Now the disk dies: the head write fails after the last good
	// snapshot was rotated aside.
	atomicio.SetInjector(&flakyInjector{prefix: dir, failures: 1 << 30})
	w.last = time.Time{}
	w.Commit(1, []byte("lost"))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("dead-disk write left a head snapshot")
	}
	prev, err := Load(PrevGeneration(path))
	if err != nil {
		t.Fatalf("previous generation must survive the failed head write: %v", err)
	}
	if !bytes.Equal(prev.Records[0], []byte("good")) {
		t.Fatalf("previous generation corrupted: %+v", prev.Records)
	}
}

func TestRemoveGenerations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := os.WriteFile(path, []byte("h"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(PrevGeneration(path), []byte("p"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RemoveGenerations(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("head not removed")
	}
	if _, err := os.Stat(PrevGeneration(path)); !os.IsNotExist(err) {
		t.Fatal("previous generation not removed")
	}
	// Idempotent on missing files.
	if err := RemoveGenerations(path); err != nil {
		t.Fatal(err)
	}
}
