package ckpt

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode hammers the snapshot decoder with arbitrary
// bytes: truncations, bit flips, version skew, hostile length fields.
// The contract under fuzz is strict — Decode must never panic, must
// never accept an image whose CRC does not match, and anything it does
// accept must re-encode to the exact same canonical bytes.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with valid images of both run shapes — a grid with job
	// records and a stream with a sink state — plus targeted mutants and
	// a version 1 image of every retired kind, so coverage starts beyond
	// the magic/version gate.
	jobs := New(0xabad1dea, 7, 49)
	jobs.Records[0] = bytes.Repeat([]byte{0x42}, 312)
	jobs.Records[5] = bytes.Repeat([]byte{0x17}, 312)
	f.Add(jobs.Encode())

	stream := NewStream(0xfeedface, 42)
	stream.Frontier, stream.Sink = 1000, []byte("sink state")
	f.Add(stream.Encode())
	f.Add(New(0, 0, 1).Encode())
	for kind := byte(1); kind <= 4; kind++ {
		f.Add(v1Image(kind))
	}

	flipped := stream.Encode()
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	truncated := jobs.Encode()
	f.Add(truncated[:len(truncated)/2])
	f.Add([]byte("RKCP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data) // must not panic
		if err != nil {
			return
		}
		// Accepted images must be canonical: re-encoding reproduces the
		// input bit for bit, so there is exactly one on-disk form per
		// state and a decode-edit-encode cycle cannot drift.
		if !bytes.Equal(s.Encode(), data) {
			t.Fatalf("accepted non-canonical image:\n in: %x\nout: %x", data, s.Encode())
		}
	})
}
