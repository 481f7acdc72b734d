package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"reskit/internal/ckpt"
	"reskit/internal/rng"
)

// FuzzResumeSnapshot feeds arbitrary bytes to the engine's resume path
// as the on-disk snapshot. Whatever the file contains — garbage, a
// truncated snapshot, a forged one with hostile geometry or payloads —
// the engine must not panic, must fall back to a fresh run (or abort
// with a validation error) rather than trust bad payloads, and any run
// that does complete must reproduce the reference payloads exactly.
func FuzzResumeSnapshot(f *testing.F) {
	const n = 4
	ref := make([][]byte, n)
	for i := range ref {
		ref[i] = binary.LittleEndian.AppendUint64(nil, rng.NewStream(42, uint64(i)).Uint64())
	}

	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))
	good := ckpt.New(7, 42, n)
	good.Records[0] = ref[0]
	good.Records[2] = ref[2]
	f.Add(good.Encode())
	forged := ckpt.New(7, 42, n)
	forged.Records[1] = []byte("wrong size payload")
	f.Add(forged.Encode())
	stream := ckpt.NewStream(7, 42)
	stream.Frontier, stream.Sink = 2, []byte("sink state")
	f.Add(stream.Encode())
	for kind := byte(1); kind <= 4; kind++ {
		f.Add(v1Image(kind, n))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		spec := Spec{Seed: 42, Fingerprint: 7, Workers: 2}
		for i := 0; i < n; i++ {
			i := i
			spec.Jobs = append(spec.Jobs, Job{
				Name:   fmt.Sprintf("job%d", i),
				Stream: uint64(i),
				Run: func(ctx context.Context, src *rng.Source) (JobResult, error) {
					return JobResult{Payload: binary.LittleEndian.AppendUint64(nil, src.Uint64())}, nil
				},
			})
		}
		spec.Checkpoint = Checkpoint{Path: path, Resume: true}
		spec.Check = func(job int, payload []byte) error {
			if len(payload) != 8 {
				return fmt.Errorf("payload %d bytes, want 8", len(payload))
			}
			return nil
		}
		res, err := Run(context.Background(), spec)
		if err != nil {
			// The only acceptable failure is restore validation refusing a
			// forged payload; the engine never runs jobs before that.
			if res.Fresh != 0 {
				t.Fatalf("jobs ran despite restore failure: %v", err)
			}
			return
		}
		if res.Done() != n {
			t.Fatalf("clean run finished %d/%d jobs", res.Done(), n)
		}
		for i := range ref {
			if !bytes.Equal(res.Payloads[i], ref[i]) {
				t.Fatalf("payload %d differs after resume from fuzzed snapshot", i)
			}
		}
	})
}

// v1Image assembles a version 1 snapshot of this fuzz target's run —
// the retired per-kind layout the engine must never resume from — with
// job 0 recorded: a 57-byte header (magic, version, CRC, kind,
// fingerprint, seed, trials, block size, block count, completed count)
// and one block record.
func v1Image(kind byte, n uint64) []byte {
	le := binary.LittleEndian
	d := append([]byte("RKCP"), 1, 0, 0, 0, 0, 0, 0, 0, kind)
	for _, v := range []uint64{7, 42, n, 1, n} {
		d = le.AppendUint64(d, v)
	}
	d = le.AppendUint32(d, 1)
	d = le.AppendUint32(d, 0)
	d = le.AppendUint32(d, 8)
	d = le.AppendUint64(d, rng.NewStream(42, 0).Uint64())
	le.PutUint32(d[8:12], crc32.ChecksumIEEE(d[12:]))
	return d
}
