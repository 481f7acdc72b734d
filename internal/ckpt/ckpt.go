// Package ckpt makes long runs of the job engine (internal/engine)
// durable: it applies the paper's own medicine — periodic checkpointing
// — to the simulator itself. An engine job is deterministic in (config,
// seed, rng substream), so a *completed job* is a resumable unit: a
// grid run's snapshot records every completed payload and a restart
// re-executes only the missing jobs; a folding stream's records its
// commit frontier and the sink state at it. Either way the final result
// is bit-identical to an uninterrupted run for any worker count.
//
// There is one on-disk image for both (see State.Encode for the exact
// layout): a magic number, a format version, a CRC32, the run's
// identity (configuration fingerprint, seed, job count) and its
// progress (frontier, sink state, job records). Every write goes
// through internal/atomicio (write-temp-fsync-rename), so a crash while
// snapshotting can never leave a truncated file — the previous snapshot
// survives. Every load verifies the CRC, the version and the structure,
// and State.Check verifies the identity, returning structured errors
// for corrupt or mismatched snapshots — never panicking, never silently
// resuming the wrong run.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"sort"

	"reskit/internal/atomicio"
)

// Version is the current snapshot format version. Decoders accept only
// this version; bumping it invalidates older snapshots explicitly
// instead of misreading them. Version 1 images (the retired per-kind
// layout: sharded Monte-Carlo kinds 1–2, job grids, stream frontiers)
// are refused with ErrVersion.
const Version = 2

// magic identifies a reskit run snapshot.
var magic = [4]byte{'R', 'K', 'C', 'P'}

// Structured decode/validation failures. Errors returned by Decode, Load
// and State.Check wrap one of these sentinels, so callers can classify
// with errors.Is and fall back to a fresh run.
var (
	// ErrNotSnapshot marks a file that is not a reskit snapshot at all
	// (wrong magic or shorter than the fixed header).
	ErrNotSnapshot = errors.New("ckpt: not a reskit run snapshot")
	// ErrVersion marks a snapshot from an incompatible format version.
	ErrVersion = errors.New("ckpt: unsupported snapshot version")
	// ErrCorrupt marks a snapshot that fails the CRC or whose structure
	// is internally inconsistent (truncated or oversized records,
	// out-of-range or duplicate job indices, a frontier without a sink
	// state).
	ErrCorrupt = errors.New("ckpt: snapshot corrupt")
	// ErrMismatch marks a well-formed snapshot of a *different* run:
	// fingerprint, seed or job count disagree with the run being
	// resumed.
	ErrMismatch = errors.New("ckpt: snapshot does not match this run")
)

// State is the durable image of an engine run: its identity and its
// progress. A grid run records every completed job; a folding stream
// (job count 0) advances its frontier and records no jobs. It is not
// safe for concurrent use; Writer provides the synchronized, throttled
// layer the engine talks to.
type State struct {
	Fingerprint uint64 // caller-computed hash of the run configuration
	Seed        uint64
	Jobs        int64          // job count of a grid run; 0 for an open-ended stream
	Frontier    int64          // jobs [0, Frontier) are folded into Sink
	Sink        []byte         // sink state at Frontier; empty iff Frontier is 0
	Records     map[int][]byte // completed job index -> payload
}

// New returns an empty state for the run with the given identity; jobs
// is 0 for an open-ended stream.
func New(fingerprint, seed uint64, jobs int64) *State {
	return &State{Fingerprint: fingerprint, Seed: seed, Jobs: jobs, Records: make(map[int][]byte)}
}

// NewStream returns an empty state for an open-ended stream.
func NewStream(fingerprint, seed uint64) *State { return New(fingerprint, seed, 0) }

// Done returns the number of completed jobs recorded in the state.
func (s *State) Done() int { return len(s.Records) }

// Check validates that the snapshot belongs to the run described by the
// arguments. Any disagreement returns an error wrapping ErrMismatch that
// names the offending field.
func (s *State) Check(fingerprint, seed uint64, jobs int64) error {
	switch {
	case s.Fingerprint != fingerprint:
		return fmt.Errorf("%w: config fingerprint %016x, run fingerprint %016x", ErrMismatch, s.Fingerprint, fingerprint)
	case s.Seed != seed:
		return fmt.Errorf("%w: snapshot seed %d, run seed %d", ErrMismatch, s.Seed, seed)
	case s.Jobs != jobs:
		return fmt.Errorf("%w: snapshot of %d jobs, run of %d (0: open-ended stream)", ErrMismatch, s.Jobs, jobs)
	}
	return nil
}

// headerSize is the fixed prefix: magic, version, crc, the three
// identity fields, the frontier and the sink state length.
const headerSize = 4 + 4 + 4 + 4*8 + 4

// MaxPayload bounds one record: a job payload or a sink state. Real
// payloads are a few hundred bytes; the bound keeps a corrupt length
// field from driving a huge allocation before the CRC check would catch
// it. Decode refuses larger records, so the engine refuses them when
// they are recorded, not when a resume reads them back.
const MaxPayload = 1 << 20

// Encode serializes the state. Layout (all integers little-endian):
//
//	[0:4)   magic "RKCP"
//	[4:8)   format version (uint32)
//	[8:12)  CRC32 (IEEE) of every byte after this field
//	[12:20) config fingerprint (uint64)
//	[20:28) seed (uint64)
//	[28:36) job count (int64; 0 for an open-ended stream)
//	[36:44) frontier (int64)
//	[44:48) sink state length (uint32), then the sink state bytes
//	then the number of job records (uint32) and, for each record in
//	ascending job order: job index (uint32), payload length (uint32),
//	payload bytes
//
// Ascending record order makes the encoding canonical: two states with
// the same completed jobs produce identical bytes.
func (s *State) Encode() []byte {
	idx := make([]int, 0, len(s.Records))
	size := headerSize + len(s.Sink) + 4
	for j, p := range s.Records {
		idx = append(idx, j)
		size += 8 + len(p)
	}
	sort.Ints(idx)

	out := make([]byte, 12, size)
	copy(out[0:4], magic[:])
	binary.LittleEndian.PutUint32(out[4:8], Version)
	// out[8:12] is the CRC, filled last.
	out = binary.LittleEndian.AppendUint64(out, s.Fingerprint)
	out = binary.LittleEndian.AppendUint64(out, s.Seed)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.Jobs))
	out = binary.LittleEndian.AppendUint64(out, uint64(s.Frontier))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Sink)))
	out = append(out, s.Sink...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(idx)))
	for _, j := range idx {
		out = binary.LittleEndian.AppendUint32(out, uint32(j))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Records[j])))
		out = append(out, s.Records[j]...)
	}
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(out[12:]))
	return out
}

// Decode parses and validates a snapshot image. Corrupt, truncated or
// version-skewed inputs return structured errors (wrapping ErrNotSnapshot,
// ErrVersion or ErrCorrupt) — never a panic, and a CRC mismatch is never
// accepted. Every version 1 image, whatever its kind, wraps ErrVersion.
func Decode(data []byte) (*State, error) {
	if len(data) < headerSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrNotSnapshot, len(data), headerSize+4)
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNotSnapshot, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("%w: version %d, this build reads version %d; rerun from scratch", ErrVersion, v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(data[8:12])
	if got := crc32.ChecksumIEEE(data[12:]); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC32 %08x, header says %08x", ErrCorrupt, got, wantCRC)
	}

	s := &State{
		Fingerprint: binary.LittleEndian.Uint64(data[12:20]),
		Seed:        binary.LittleEndian.Uint64(data[20:28]),
		Jobs:        int64(binary.LittleEndian.Uint64(data[28:36])),
		Frontier:    int64(binary.LittleEndian.Uint64(data[36:44])),
	}
	switch {
	case s.Jobs < 0 || s.Frontier < 0:
		return nil, fmt.Errorf("%w: negative job count %d or frontier %d", ErrCorrupt, s.Jobs, s.Frontier)
	case s.Jobs > 0 && s.Frontier > 0:
		return nil, fmt.Errorf("%w: frontier %d on a %d-job grid (only open-ended streams fold)", ErrCorrupt, s.Frontier, s.Jobs)
	}
	off := headerSize - 4
	sink, err := record(data, &off)
	if err != nil {
		return nil, fmt.Errorf("%w: sink state: %v", ErrCorrupt, err)
	}
	if (s.Frontier > 0) != (len(sink) > 0) {
		return nil, fmt.Errorf("%w: frontier %d with a %d-byte sink state", ErrCorrupt, s.Frontier, len(sink))
	}
	s.Sink = sink

	if len(data)-off < 4 {
		return nil, fmt.Errorf("%w: truncated before the job records", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	off += 4
	if int64(n) > s.Jobs || int64(n) > int64(len(data)-off)/8 {
		return nil, fmt.Errorf("%w: %d job records in %d bytes of a %d-job run", ErrCorrupt, n, len(data)-off, s.Jobs)
	}
	s.Records = make(map[int][]byte, n)
	prev := -1
	for i := uint32(0); i < n; i++ {
		if len(data)-off < 8 {
			return nil, fmt.Errorf("%w: truncated at job record %d", ErrCorrupt, i)
		}
		j := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 4
		if int64(j) >= s.Jobs {
			return nil, fmt.Errorf("%w: job index %d out of %d", ErrCorrupt, j, s.Jobs)
		}
		if j <= prev {
			return nil, fmt.Errorf("%w: job indices not strictly ascending at %d", ErrCorrupt, j)
		}
		prev = j
		payload, err := record(data, &off)
		if err != nil {
			return nil, fmt.Errorf("%w: job %d payload: %v", ErrCorrupt, j, err)
		}
		s.Records[j] = payload
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last record", ErrCorrupt, len(data)-off)
	}
	return s, nil
}

// record copies the length-prefixed record at data[*off:] and advances
// *off past it, refusing a record over MaxPayload or past the end of
// the image. The caller guarantees the 4-byte length field is there.
func record(data []byte, off *int) ([]byte, error) {
	size := binary.LittleEndian.Uint32(data[*off:])
	*off += 4
	switch {
	case size > MaxPayload:
		return nil, fmt.Errorf("%d bytes exceed the %d-byte record bound", size, MaxPayload)
	case int(size) > len(data)-*off:
		return nil, fmt.Errorf("%d bytes overrun the file", size)
	}
	out := make([]byte, size)
	copy(out, data[*off:])
	*off += int(size)
	return out, nil
}

// Load reads and decodes the snapshot at path.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// WriteFile atomically persists the state to path via
// write-temp-fsync-rename: a crash mid-snapshot leaves the previous
// snapshot intact, never a truncated file.
func (s *State) WriteFile(path string) error {
	return atomicio.WriteFile(path, s.Encode(), 0o644)
}

// Fingerprint hashes an ordered list of configuration facets (flag
// values, law specs, strategy names ...) into the 64-bit config
// fingerprint stored in snapshots. FNV-1a with a separator byte between
// parts, so ("ab","c") and ("a","bc") differ.
func Fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
