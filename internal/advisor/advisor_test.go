package advisor

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"testing"

	"reskit/internal/ckpt"
	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/httpd"
	"reskit/internal/lawspec"
	"reskit/internal/obs"
)

// The reference queries, one per mode, mirroring ckptopt invocations.
var (
	qPreempt = Query{Mode: ModePreempt, R: 10, Ckpt: "exp:0.5@[1,5]"}
	qStatic  = Query{Mode: ModeStatic, R: 100, Task: "norm:5,0.5", Ckpt: "norm:1,0.1@[0,inf]"}
	qStaticD = Query{Mode: ModeStatic, R: 50, TaskDisc: "poisson:3", Ckpt: "uniform:0.5,1"}
	qDynamic = Query{Mode: ModeDynamic, R: 10, Task: "exp:0.3", Ckpt: "uniform:0.3,0.7", Work: 2.5}
)

func mustAdvise(t *testing.T, a *Advisor, q Query) Answer {
	t.Helper()
	ans, err := a.Advise(context.Background(), q)
	if err != nil {
		t.Fatalf("Advise(%+v): %v", q, err)
	}
	return ans
}

// TestFingerprintMatchesCkptIdiom pins the alloc-free incremental hash
// to the canonical ckpt.Fingerprint over the rendered part list — the
// content address must be reproducible by any tool that can call
// ckpt.Fingerprint.
func TestFingerprintMatchesCkptIdiom(t *testing.T) {
	for _, q := range []Query{qPreempt, qStatic, qStaticD, qDynamic,
		{Mode: ModeDynamic, R: math.Pi, Task: "norm:3,0.5@[0,inf]", Ckpt: "det:1"},
		{}, // even a nonsense query hashes consistently
	} {
		want := ckpt.Fingerprint(FingerprintParts(q)...)
		if got := q.fingerprint(); got != want {
			t.Errorf("fingerprint(%+v) = %016x, ckpt.Fingerprint = %016x", q, got, want)
		}
	}
}

// TestFingerprintIgnoresDecisionState: Work/Elapsed select a point on
// the policy, not a different policy — they must not shard the cache.
func TestFingerprintIgnoresDecisionState(t *testing.T) {
	q2 := qDynamic
	q2.Work, q2.Elapsed = 7, 9
	if q2.fingerprint() != qDynamic.fingerprint() {
		t.Fatal("Work/Elapsed leaked into the fingerprint")
	}
	q3 := qDynamic
	q3.R = math.Nextafter(q3.R, 20)
	if q3.fingerprint() == qDynamic.fingerprint() {
		t.Fatal("adjacent R values share a fingerprint")
	}
}

// TestPreemptBitIdentical compares the served answer to the direct core
// invocation (what ckptopt -mode preempt runs) with exact equality.
func TestPreemptBitIdentical(t *testing.T) {
	a := New(Options{})
	ans := mustAdvise(t, a, qPreempt)

	law, err := lawspec.Parse(qPreempt.Ckpt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.TryNewPreemptible(qPreempt.R, law)
	if err != nil {
		t.Fatal(err)
	}
	sol, pess := p.OptimalX(), p.Pessimistic()
	if ans.X != sol.X || ans.ExpectedWork != sol.ExpectedWork ||
		ans.Method != sol.Method || ans.Interior != sol.Interior {
		t.Errorf("optimal: got %+v, want %+v", ans, sol)
	}
	if ans.PessX != pess.X || ans.PessWork != pess.ExpectedWork || ans.Gain != p.Gain() {
		t.Errorf("pessimistic/gain mismatch: %+v", ans)
	}
}

// TestStaticBitIdentical does the same for both static task-law kinds.
func TestStaticBitIdentical(t *testing.T) {
	a := New(Options{})
	for _, q := range []Query{qStatic, qStaticD} {
		ans := mustAdvise(t, a, q)
		s, err := buildStatic(q, mustParse(t, q.Ckpt))
		if err != nil {
			t.Fatal(err)
		}
		sol := s.Optimize()
		if ans.NOpt != sol.NOpt || ans.ENOpt != sol.ENOpt || ans.YOpt != sol.YOpt {
			t.Errorf("%+v: got (n=%d, en=%v, y=%v), want (n=%d, en=%v, y=%v)",
				q, ans.NOpt, ans.ENOpt, ans.YOpt, sol.NOpt, sol.ENOpt, sol.YOpt)
		}
	}
}

// TestDynamicBitIdentical sweeps the decision over a work x elapsed
// grid and requires exact agreement with a directly constructed
// core.Dynamic — including points near the indifference line, where the
// implementation falls back to exact integrals.
func TestDynamicBitIdentical(t *testing.T) {
	a := New(Options{})

	d, err := buildDynamic(qDynamic, mustParse(t, qDynamic.Ckpt))
	if err != nil {
		t.Fatal(err)
	}
	wint, werr := d.Intersection()

	ans := mustAdvise(t, a, qDynamic)
	if werr == nil != ans.HasWInt || (werr == nil && wint != ans.WInt) {
		t.Fatalf("intersection: served (%v, %v), direct (%v, %v)", ans.WInt, ans.HasWInt, wint, werr)
	}
	for wi := 0; wi <= 20; wi++ {
		for ei := 0; ei <= 20; ei++ {
			work := qDynamic.R * float64(wi) / 20
			elapsed := qDynamic.R * float64(ei) / 20
			if elapsed < work {
				continue
			}
			q := qDynamic
			q.Work, q.Elapsed = work, elapsed
			if q.Elapsed == 0 && q.Work != 0 {
				continue // elapsed 0 means "equal to work"
			}
			got := mustAdvise(t, a, q)
			want := d.ShouldCheckpointAt(work, got.Elapsed)
			if got.CheckpointNow != want {
				t.Errorf("ShouldCheckpointAt(%v, %v): served %v, direct %v", work, got.Elapsed, got.CheckpointNow, want)
			}
		}
	}
}

// TestElapsedDefaultsToWork pins the Section 4.3 convention.
func TestElapsedDefaultsToWork(t *testing.T) {
	a := New(Options{})
	q := qDynamic
	q.Work, q.Elapsed = 3, 0
	ans := mustAdvise(t, a, q)
	if ans.Elapsed != 3 || ans.Work != 3 {
		t.Fatalf("elapsed defaulting: got work=%v elapsed=%v", ans.Work, ans.Elapsed)
	}
}

// TestStoreRoundTrip: a second advisor over the same directory must
// serve the persisted table (store hit, no rebuild) and answer
// bit-identically to the process that built it.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg1 := obs.NewRegistry()
	a1 := New(Options{Dir: dir, Reg: reg1})
	first := mustAdvise(t, a1, qDynamic)
	if got := reg1.Counter("advisor.builds").Value(); got != 1 {
		t.Fatalf("cold advisor ran %d builds, want 1", got)
	}
	path := ArtifactPath(dir, uint64(first.Fingerprint))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact not persisted: %v", err)
	}

	reg2 := obs.NewRegistry()
	a2 := New(Options{Dir: dir, Reg: reg2})
	second := mustAdvise(t, a2, qDynamic)
	if got := reg2.Counter("advisor.builds").Value(); got != 0 {
		t.Fatalf("warm advisor ran %d builds, want 0 (store hit)", got)
	}
	if got := reg2.Counter("advisor.store_hits").Value(); got != 1 {
		t.Fatalf("store_hits = %d, want 1", got)
	}
	if first != second {
		t.Fatalf("answers differ across processes:\n%+v\n%+v", first, second)
	}

	// And a fine-grained sweep still agrees exactly.
	for wi := 1; wi <= 10; wi++ {
		q := qDynamic
		q.Work = qDynamic.R * float64(wi) / 10
		q.Elapsed = q.Work
		x, y := mustAdvise(t, a1, q), mustAdvise(t, a2, q)
		if x != y {
			t.Fatalf("decision diverges at work=%v:\n%+v\n%+v", q.Work, x, y)
		}
	}
}

// TestArtifactCodecRoundTrip round-trips every mode through the binary
// codec and requires structural equality.
func TestArtifactCodecRoundTrip(t *testing.T) {
	for _, q := range []Query{qPreempt, qStatic, qStaticD, qDynamic} {
		e, err := computeEntry(context.Background(), q, q.fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeArtifact(e.art)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", q.Mode, err)
		}
		if !artifactsEqual(e.art, got) {
			t.Errorf("%s: round trip changed the artifact", q.Mode)
		}
	}
}

func artifactsEqual(a, b *Artifact) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return string(aj) == string(bj)
}

// TestCorruptArtifactIsRebuilt: a flipped byte must be detected (CRC)
// and the table rebuilt from the laws — never a wrong answer served.
func TestCorruptArtifactIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	a1 := New(Options{Dir: dir})
	first := mustAdvise(t, a1, qDynamic)

	path := ArtifactPath(dir, uint64(first.Fingerprint))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	a2 := New(Options{Dir: dir, Reg: reg})
	second := mustAdvise(t, a2, qDynamic)
	if first != second {
		t.Fatalf("corrupt store changed the answer:\n%+v\n%+v", first, second)
	}
	if reg.Counter("advisor.store_errors").Value() == 0 {
		t.Error("corruption not counted in advisor.store_errors")
	}
	if reg.Counter("advisor.builds").Value() != 1 {
		t.Error("corrupt artifact did not trigger a rebuild")
	}
}

// TestDecodeArtifactRejectsGarbage exercises the error taxonomy.
func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	e, err := computeEntry(context.Background(), qPreempt, qPreempt.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeArtifact(e.art)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrNotArtifact},
		{"short", []byte("RK"), ErrNotArtifact},
		{"magic", append([]byte("NOPE"), good[4:]...), ErrNotArtifact},
		{"version", append(append([]byte(storeMagic), 99), good[5:]...), ErrVersion},
		{"truncated", good[:len(good)-4], ErrCorrupt},
		{"trailing", append(append([]byte{}, good...), 0), ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := DecodeArtifact(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSingleflightDedupesBuilds: many concurrent cold queries for the
// same key must cost exactly one build.
func TestSingleflightDedupesBuilds(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Options{Reg: reg})
	const n = 16
	var wg sync.WaitGroup
	answers := make([]Answer, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i] = mustAdviseConcurrent(t, a, qDynamic)
		}(i)
	}
	wg.Wait()
	if got := reg.Counter("advisor.builds").Value(); got != 1 {
		t.Fatalf("%d concurrent identical queries ran %d builds, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if answers[i] != answers[0] {
			t.Fatalf("answer %d differs: %+v vs %+v", i, answers[i], answers[0])
		}
	}
}

func mustAdviseConcurrent(t *testing.T, a *Advisor, q Query) Answer {
	ans, err := a.Advise(context.Background(), q)
	if err != nil {
		t.Errorf("Advise: %v", err)
	}
	return ans
}

// TestCacheHitZeroAllocs is the steady-state budget: once the table is
// cached, answering a query — any mode, including a dynamic decision
// away from the indifference line — must not allocate.
func TestCacheHitZeroAllocs(t *testing.T) {
	a := New(Options{Reg: obs.NewRegistry()})
	ctx := context.Background()
	queries := []Query{qPreempt, qStatic, qDynamic}
	for _, q := range queries {
		mustAdvise(t, a, q) // warm
	}
	for _, q := range queries {
		q := q
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := a.Advise(ctx, q); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s cache hit allocates %.1f objects/request, want 0", q.Mode, avg)
		}
	}
}

// TestValidateRejectsBadQueries enumerates the rejection surface.
func TestValidateRejectsBadQueries(t *testing.T) {
	bad := []Query{
		{},
		{Mode: "nope", R: 1, Ckpt: "det:1"},
		{Mode: ModePreempt, R: 0, Ckpt: "det:1"},
		{Mode: ModePreempt, R: math.Inf(1), Ckpt: "det:1"},
		{Mode: ModePreempt, R: math.NaN(), Ckpt: "det:1"},
		{Mode: ModePreempt, R: 1},
		{Mode: ModePreempt, R: 10, Task: "det:1", Ckpt: "det:1"},
		{Mode: ModeStatic, R: 10, Ckpt: "det:1"},
		{Mode: ModeStatic, R: 10, Task: "det:1", TaskDisc: "poisson:1", Ckpt: "det:1"},
		{Mode: ModeDynamic, R: 10, Task: "det:1", Ckpt: "det:1", Work: -1},
		{Mode: ModeDynamic, R: 10, Task: "det:1", Ckpt: "det:1", Work: math.NaN()},
		{Mode: ModeDynamic, R: 10, Task: "det:1", Ckpt: "det:1", Work: 5, Elapsed: 2},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad query", q)
		}
	}
	a := New(Options{})
	if _, err := a.Advise(context.Background(), Query{Mode: ModeStatic, R: 10, Task: "tri:0,1,2", Ckpt: "det:1"}); err == nil {
		t.Error("non-summable task law accepted for static mode")
	}
	if _, err := a.Advise(context.Background(), Query{Mode: ModePreempt, R: 10, Ckpt: "exp:1"}); err == nil {
		t.Error("unbounded checkpoint law accepted for preempt mode")
	}
}

// TestHex64JSON pins the wire form of fingerprints.
func TestHex64JSON(t *testing.T) {
	in := httpd.Hex64(0x00ab_cdef_0123_4567)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"00abcdef01234567"` {
		t.Fatalf("marshal: %s", data)
	}
	var out httpd.Hex64
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %x != %x", out, in)
	}
	if err := json.Unmarshal([]byte("12"), &out); err == nil {
		t.Error("numeric fingerprint accepted")
	}
}

func mustParse(t *testing.T, spec string) dist.Continuous {
	t.Helper()
	law, err := lawspec.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return law
}

// TestNegativeCache: a deterministic build failure (an unparseable law)
// is cached — the repeat query returns the identical error value from
// one map probe, without rerunning the build — while Tables() keeps
// counting only real policy tables.
func TestNegativeCache(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Options{Reg: reg})
	ctx := context.Background()
	bad := Query{Mode: ModeDynamic, R: 10, Task: "warble:3", Ckpt: "uniform:0.3,0.7"}

	_, err1 := a.Advise(ctx, bad)
	if err1 == nil {
		t.Fatal("bogus law spec built a table")
	}
	_, err2 := a.Advise(ctx, bad)
	if err2 != err1 {
		t.Fatalf("repeat query rebuilt the error: %v vs %v", err2, err1)
	}
	if got := reg.Counter("advisor.build_errors").Value(); got != 1 {
		t.Fatalf("build_errors = %d, want 1 (the repeat must hit the cache)", got)
	}
	if got := reg.Counter("advisor.negative_hits").Value(); got != 1 {
		t.Fatalf("negative_hits = %d, want 1", got)
	}
	if got := a.Tables(); got != 0 {
		t.Fatalf("Tables() = %d, want 0: a cached error is not a table", got)
	}
	// A positive entry rides alongside, and only it is counted.
	mustAdvise(t, a, qDynamic)
	if got := a.Tables(); got != 1 {
		t.Fatalf("Tables() = %d, want 1", got)
	}
}

// TestNegativeCacheHitZeroAllocs: the negative hit path has the same
// budget as the positive one — atomic load, map probe, shared error.
func TestNegativeCacheHitZeroAllocs(t *testing.T) {
	a := New(Options{Reg: obs.NewRegistry()})
	ctx := context.Background()
	bad := Query{Mode: ModeStatic, R: 10, Task: "warble:3", Ckpt: "uniform:0.3,0.7"}
	if _, err := a.Advise(ctx, bad); err == nil { // warm
		t.Fatal("bogus law spec built a table")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := a.Advise(ctx, bad); err == nil {
			t.Fatal("cached error vanished")
		}
	}); avg != 0 {
		t.Errorf("negative cache hit allocates %.1f objects/request, want 0", avg)
	}
}

// TestContextErrorNotCached: a build cancelled mid-flight must not
// poison the key — the next caller with a live context gets the table.
func TestContextErrorNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Options{Reg: reg})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Mode: ModeDynamic, R: 11, Task: "exp:0.3", Ckpt: "uniform:0.3,0.7", Work: 2}
	if _, err := a.Advise(cancelled, q); err == nil {
		t.Skip("build finished before the cancellation was observed")
	}
	if got := reg.Counter("advisor.negative_hits").Value(); got != 0 {
		t.Fatalf("negative_hits = %d after a cancelled build, want 0", got)
	}
	mustAdvise(t, a, q)
	if got := a.Tables(); got != 1 {
		t.Fatalf("Tables() = %d, want 1: the cancelled build must not stick", got)
	}
}
