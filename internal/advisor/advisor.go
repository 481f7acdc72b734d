// Package advisor serves the paper's checkpoint-policy decisions as an
// online service. Every answer the CLI tools compute — the Section 3
// optimal checkpoint instant X*, the Section 4.2 static n_opt, the
// Section 4.3 dynamic threshold table — is a pure function of
// (law specs, R), so it is computed once, content-addressed by a
// fingerprint of exactly those inputs (the internal/ckpt idiom), kept
// in an immutable in-process cache, and optionally persisted through
// internal/atomicio so a restarted server never recomputes a table it
// already built.
//
// The cache is copy-on-write: readers take one atomic pointer load and
// a map lookup — no locks, no allocation — and a cache hit answers any
// query against the table without touching the quadrature stack (the
// Legendre rule cache in internal/quad is the precedent). Misses are
// deduplicated by a singleflight layer, so a thundering herd of
// identical cold queries costs one table build, not hundreds.
//
// Answers are bit-identical to the corresponding CLI invocation by
// construction: the build path runs the very same core constructors and
// solvers the CLI runs, and the dynamic decision path evaluates
// core.Dynamic.ShouldCheckpointAt on a Dynamic whose coefficient table
// was either built in place or re-installed verbatim from the artifact.
package advisor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/httpd"
	"reskit/internal/lawspec"
	"reskit/internal/obs"
)

// Modes understood by the advisor; they mirror ckptopt -mode.
const (
	ModePreempt = "preempt"
	ModeStatic  = "static"
	ModeDynamic = "dynamic"
)

// Query asks one policy question. Mode, R and the law specs select the
// policy table (they alone are fingerprinted); Work and Elapsed carry
// the decision state of a dynamic query ("I have this much uncommitted
// work, this much reservation time has passed — should I checkpoint
// now?"). Elapsed defaults to Work, the Section 4.3 situation where no
// earlier checkpoint succeeded; after a successful mid-reservation
// commit, pass the true elapsed time (Section 4.4).
type Query struct {
	Mode     string  `json:"mode"`
	R        float64 `json:"r"`
	Task     string  `json:"task,omitempty"`     // continuous task law (static/dynamic)
	TaskDisc string  `json:"taskdisc,omitempty"` // discrete task law (static/dynamic)
	Ckpt     string  `json:"ckpt"`               // checkpoint-duration law (all modes)

	Work    float64 `json:"work,omitempty"`    // dynamic: uncommitted work
	Elapsed float64 `json:"elapsed,omitempty"` // dynamic: elapsed time (0 -> Work)
}

// Validate checks the query's shape without parsing the law specs (the
// build path reports law errors with full context).
func (q Query) Validate() error {
	switch q.Mode {
	case ModePreempt:
		if q.Task != "" || q.TaskDisc != "" {
			return fmt.Errorf("advisor: mode %q takes no task law", q.Mode)
		}
	case ModeStatic, ModeDynamic:
		if (q.Task == "") == (q.TaskDisc == "") {
			return fmt.Errorf("advisor: mode %q needs exactly one of task and taskdisc", q.Mode)
		}
	default:
		return fmt.Errorf("advisor: unknown mode %q (want preempt, static or dynamic)", q.Mode)
	}
	if !(q.R > 0) || math.IsInf(q.R, 0) || math.IsNaN(q.R) {
		return fmt.Errorf("advisor: R must be positive and finite, got %g", q.R)
	}
	if q.Ckpt == "" {
		return errors.New("advisor: ckpt law is required")
	}
	if q.Work < 0 || math.IsNaN(q.Work) || math.IsInf(q.Work, 0) {
		return fmt.Errorf("advisor: work must be finite and >= 0, got %g", q.Work)
	}
	if q.Elapsed < 0 || math.IsNaN(q.Elapsed) || math.IsInf(q.Elapsed, 0) {
		return fmt.Errorf("advisor: elapsed must be finite and >= 0, got %g", q.Elapsed)
	}
	if q.Elapsed != 0 && q.Elapsed < q.Work {
		return fmt.Errorf("advisor: elapsed %g < work %g is impossible", q.Elapsed, q.Work)
	}
	return nil
}

// elapsed resolves the dynamic decision state: zero means "no earlier
// checkpoint", i.e. elapsed time equals accumulated work.
func (q Query) elapsed() float64 {
	if q.Elapsed == 0 {
		return q.Work
	}
	return q.Elapsed
}

// Answer is one policy decision. It is a flat struct — only the field
// groups matching Mode are meaningful — so a cache hit materializes it
// with zero allocations. On the wire it carries only its mode's keys
// (wire.go); the json tags name the keys and shape the fallback
// decoder.
type Answer struct {
	Mode        string      `json:"mode"`
	Fingerprint httpd.Hex64 `json:"fingerprint"`
	R           float64     `json:"r"`

	// Dynamic (Section 4.3): the decision for the queried state plus
	// the indifference threshold W_int (HasWInt false when the curves
	// never cross inside (0, R)).
	CheckpointNow bool    `json:"checkpoint_now"`
	Work          float64 `json:"work"`
	Elapsed       float64 `json:"elapsed"`
	WInt          float64 `json:"w_int"`
	HasWInt       bool    `json:"has_w_int"`

	// Static (Section 4.2): checkpoint after NOpt tasks.
	NOpt  int     `json:"n_opt"`
	ENOpt float64 `json:"e_n_opt"`
	YOpt  float64 `json:"y_opt"`

	// Preempt (Section 3): start the final checkpoint X before the end.
	X            float64 `json:"x"`
	ExpectedWork float64 `json:"expected_work"`
	Method       string  `json:"method,omitempty"`
	Interior     bool    `json:"interior"`
	PessX        float64 `json:"pessimistic_x"`
	PessWork     float64 `json:"pessimistic_work"`
	Gain         float64 `json:"gain"`
}

// Artifact is the immutable, content-addressed policy table for one
// (mode, R, laws) key: everything expensive the build computed, and
// nothing that depends on a particular query. It is what the store
// persists and what the cache holds.
type Artifact struct {
	Fingerprint uint64
	Mode        string
	R           float64
	Task        string
	TaskDisc    string
	Ckpt        string

	Preempt *PreemptTable
	Static  *StaticTable
	Dynamic *DynamicTable
}

// PreemptTable is the solved Section 3 problem.
type PreemptTable struct {
	X, ExpectedWork float64
	Method          string
	Interior        bool
	PessX, PessWork float64
	Gain            float64
	A, B            float64 // support of the checkpoint law
}

// StaticTable is the solved Section 4.2 problem.
type StaticTable struct {
	YOpt, FOpt float64
	NOpt       int
	ENOpt      float64
}

// DynamicTable is the Section 4.3 coefficient table plus the
// indifference point.
type DynamicTable struct {
	WInt    float64
	HasWInt bool
	Coeff   core.CoeffTable
}

// matches reports whether the artifact's key fields equal the query's —
// the guard against a fingerprint collision or a stale store entry.
func (t *Artifact) matches(q Query) bool {
	return t.Mode == q.Mode && t.R == q.R &&
		t.Task == q.Task && t.TaskDisc == q.TaskDisc && t.Ckpt == q.Ckpt
}

// entry is a cached artifact plus the live decision objects rebuilt
// around it (the laws re-parsed, the coefficient table installed) — or
// a cached negative result: err set, everything else nil. The build
// errors the advisor caches are pure functions of the fingerprinted
// key fields (an unparseable law, a constructor rejection, a solver
// with no solution), so retrying the build can only burn the same CPU
// to produce the same error; caching the error makes the repeat query
// as cheap as a positive hit. Context errors are never cached — a
// cancelled build says nothing about the key.
type entry struct {
	art *Artifact
	dyn *core.Dynamic // dynamic mode: answers ShouldCheckpointAt
	err error         // negative entry: the deterministic build error
}

// inflight is one deduplicated build in progress.
type inflight struct {
	done chan struct{}
	e    *entry
	err  error
}

// Options configures an Advisor.
type Options struct {
	// Dir is the on-disk table store; "" keeps tables in memory only.
	Dir string
	// Reg binds the advisor's instruments (nil disables them):
	// advisor.queries, advisor.cache_hits, advisor.negative_hits,
	// advisor.builds, advisor.build_errors, advisor.store_hits,
	// advisor.store_writes, advisor.store_errors counters, the
	// advisor.build_ns sketch, and for Handler the per-endpoint latency
	// sketches advisor.http_advise_ns and advisor.http_batch_ns and the
	// advisor.in_flight gauge of requests being served.
	Reg *obs.Registry
}

// Advisor answers policy queries from an immutable table cache.
type Advisor struct {
	dir string

	cache    atomic.Pointer[map[uint64]*entry]
	mu       sync.Mutex // guards inflight and cache publication
	inflight map[uint64]*inflight

	queries, hits, negHits, builds, buildErrs *obs.Counter
	storeHits, storeWrites, storeErrs         *obs.Counter
	buildNS                                   *obs.Quantiles
	httpAdviseNS, httpBatchNS                 *obs.Quantiles
	inFlight                                  *obs.Gauge
}

// New returns an Advisor with an empty cache.
func New(opts Options) *Advisor {
	a := &Advisor{
		dir:         opts.Dir,
		inflight:    make(map[uint64]*inflight),
		queries:     opts.Reg.Counter("advisor.queries"),
		hits:        opts.Reg.Counter("advisor.cache_hits"),
		negHits:     opts.Reg.Counter("advisor.negative_hits"),
		builds:      opts.Reg.Counter("advisor.builds"),
		buildErrs:   opts.Reg.Counter("advisor.build_errors"),
		storeHits:   opts.Reg.Counter("advisor.store_hits"),
		storeWrites: opts.Reg.Counter("advisor.store_writes"),
		storeErrs:   opts.Reg.Counter("advisor.store_errors"),
		buildNS:     opts.Reg.Quantiles("advisor.build_ns"),

		httpAdviseNS: opts.Reg.Quantiles("advisor.http_advise_ns"),
		httpBatchNS:  opts.Reg.Quantiles("advisor.http_batch_ns"),
		inFlight:     opts.Reg.Gauge("advisor.in_flight"),
	}
	empty := make(map[uint64]*entry)
	a.cache.Store(&empty)
	return a
}

// Tables returns the number of cached policy tables. Cached negative
// results do not count: they hold no table, only an error.
func (a *Advisor) Tables() int {
	n := 0
	for _, e := range *a.cache.Load() {
		if e.err == nil {
			n++
		}
	}
	return n
}

// Advise answers one query. The hot path — the table already cached —
// is one atomic load, one map probe and a table lookup: no locks, no
// allocation, nothing proportional to the table size. A miss builds the
// table (deduplicated with concurrent identical misses), consults and
// updates the on-disk store, and publishes the new cache map
// copy-on-write; ctx bounds only that build.
func (a *Advisor) Advise(ctx context.Context, q Query) (Answer, error) {
	a.queries.Inc()
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	fp := q.fingerprint()
	if e, ok := (*a.cache.Load())[fp]; ok {
		if e.err != nil {
			a.negHits.Inc()
			return Answer{}, e.err
		}
		a.hits.Inc()
		return e.answer(fp, q), nil
	}
	e, err := a.lookupSlow(ctx, q, fp)
	if err != nil {
		return Answer{}, err
	}
	if e.err != nil {
		return Answer{}, e.err
	}
	return e.answer(fp, q), nil
}

// lookupSlow is the miss path: singleflight around build-and-publish.
func (a *Advisor) lookupSlow(ctx context.Context, q Query, fp uint64) (*entry, error) {
	a.mu.Lock()
	if e, ok := (*a.cache.Load())[fp]; ok { // raced with a publisher
		a.mu.Unlock()
		if e.err != nil {
			a.negHits.Inc()
		} else {
			a.hits.Inc()
		}
		return e, nil
	}
	if fl, ok := a.inflight[fp]; ok {
		a.mu.Unlock()
		select {
		case <-fl.done:
			return fl.e, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &inflight{done: make(chan struct{})}
	a.inflight[fp] = fl
	a.mu.Unlock()

	fl.e, fl.err = a.build(ctx, q, fp)
	close(fl.done)

	a.mu.Lock()
	delete(a.inflight, fp)
	if fl.err == nil {
		old := a.cache.Load()
		next := make(map[uint64]*entry, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
		next[fp] = fl.e
		a.cache.Store(&next)
	}
	a.mu.Unlock()
	return fl.e, fl.err
}

// build produces the entry for one key: from the on-disk store when a
// matching artifact exists, from the solvers otherwise (persisting the
// result for the next process).
func (a *Advisor) build(ctx context.Context, q Query, fp uint64) (*entry, error) {
	if a.dir != "" {
		art, err := LoadArtifact(ArtifactPath(a.dir, fp))
		switch {
		case err == nil && art.Fingerprint == fp && art.matches(q):
			e, rerr := entryFromArtifact(art)
			if rerr == nil {
				a.storeHits.Inc()
				return e, nil
			}
			a.storeErrs.Inc()
		case err == nil, errors.Is(err, ErrNotExist):
			// A well-formed artifact for a different key (collision or
			// doctored store) or no artifact at all: build fresh.
		default:
			a.storeErrs.Inc()
		}
	}
	start := time.Now()
	e, err := computeEntry(ctx, q, fp)
	if err != nil {
		a.buildErrs.Inc()
		if cacheableError(ctx, err) {
			// The error is a pure function of the key fields: publish
			// it so the repeat query costs one map probe, not a
			// rebuild. Negative entries live in memory only — the
			// store holds artifacts, and an error has none.
			return &entry{err: err}, nil
		}
		return nil, err
	}
	a.builds.Inc()
	a.buildNS.Observe(float64(time.Since(start)))
	if a.dir != "" {
		if werr := SaveArtifact(ArtifactPath(a.dir, fp), e.art); werr != nil {
			a.storeErrs.Inc() // serve from memory; the store heals on the next build
		} else {
			a.storeWrites.Inc()
		}
	}
	return e, nil
}

// cacheableError reports whether a build error may be cached as a
// negative entry: only errors that are deterministic consequences of
// the query key qualify. A context cancellation or deadline — whether
// surfaced through err or visible on ctx after a truncated build —
// must not poison the key for later, patient callers.
func cacheableError(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// computeEntry runs the same constructors and solvers the CLI runs.
func computeEntry(ctx context.Context, q Query, fp uint64) (*entry, error) {
	art := &Artifact{
		Fingerprint: fp,
		Mode:        q.Mode,
		R:           q.R,
		Task:        q.Task,
		TaskDisc:    q.TaskDisc,
		Ckpt:        q.Ckpt,
	}
	ckpt, err := lawspec.Parse(q.Ckpt)
	if err != nil {
		return nil, err
	}
	switch q.Mode {
	case ModePreempt:
		p, err := core.TryNewPreemptible(q.R, ckpt)
		if err != nil {
			return nil, err
		}
		sol := p.OptimalX()
		pess := p.Pessimistic()
		lo, hi := p.Bounds()
		art.Preempt = &PreemptTable{
			X: sol.X, ExpectedWork: sol.ExpectedWork,
			Method: sol.Method, Interior: sol.Interior,
			PessX: pess.X, PessWork: pess.ExpectedWork,
			Gain: p.Gain(),
			A:    lo, B: hi,
		}
		return &entry{art: art}, nil

	case ModeStatic:
		s, err := buildStatic(q, ckpt)
		if err != nil {
			return nil, err
		}
		sol := s.Optimize()
		art.Static = &StaticTable{YOpt: sol.YOpt, FOpt: sol.FOpt, NOpt: sol.NOpt, ENOpt: sol.ENOpt}
		return &entry{art: art}, nil

	case ModeDynamic:
		d, err := buildDynamic(q, ckpt)
		if err != nil {
			return nil, err
		}
		tbl, err := d.Table(ctx)
		if err != nil {
			return nil, err
		}
		dt := &DynamicTable{Coeff: tbl}
		switch w, err := d.Intersection(); {
		case err == nil:
			dt.WInt, dt.HasWInt = w, true
		case errors.Is(err, core.ErrNoIntersection):
			// Checkpointing immediately is never (or always) the better
			// option; the per-state decision still answers exactly.
		default:
			return nil, err
		}
		art.Dynamic = dt
		return &entry{art: art, dyn: d}, nil
	}
	return nil, fmt.Errorf("advisor: unknown mode %q", q.Mode)
}

// entryFromArtifact rebuilds the live decision objects around a loaded
// artifact: laws re-parsed, the dynamic coefficient table installed
// verbatim so no quadrature runs and decisions stay bit-identical to
// the build that produced the artifact.
func entryFromArtifact(art *Artifact) (*entry, error) {
	if art.Mode != ModeDynamic {
		return &entry{art: art}, nil
	}
	if art.Dynamic == nil {
		return nil, errors.New("advisor: dynamic artifact has no table")
	}
	ckpt, err := lawspec.Parse(art.Ckpt)
	if err != nil {
		return nil, err
	}
	d, err := buildDynamic(Query{Mode: art.Mode, R: art.R, Task: art.Task, TaskDisc: art.TaskDisc, Ckpt: art.Ckpt}, ckpt)
	if err != nil {
		return nil, err
	}
	if err := d.InstallTable(art.Dynamic.Coeff); err != nil {
		return nil, err
	}
	return &entry{art: art, dyn: d}, nil
}

// buildStatic constructs the Section 4.2 problem from the query's task
// law (continuous or discrete).
func buildStatic(q Query, ckpt dist.Continuous) (*core.Static, error) {
	if q.TaskDisc != "" {
		law, err := lawspec.ParseDiscrete(q.TaskDisc)
		if err != nil {
			return nil, err
		}
		task, ok := law.(dist.SummableDiscrete)
		if !ok {
			return nil, fmt.Errorf("advisor: task law %v does not support IID summation", law)
		}
		return core.TryNewStaticDiscrete(q.R, task, ckpt)
	}
	law, err := lawspec.Parse(q.Task)
	if err != nil {
		return nil, err
	}
	task, ok := law.(dist.Summable)
	if !ok {
		return nil, fmt.Errorf("advisor: task law %v does not support IID summation; use norm, gamma, exp or det", law)
	}
	return core.TryNewStatic(q.R, task, ckpt)
}

// buildDynamic constructs the Section 4.3 problem from the query's task
// law (continuous or discrete).
func buildDynamic(q Query, ckpt dist.Continuous) (*core.Dynamic, error) {
	if q.TaskDisc != "" {
		law, err := lawspec.ParseDiscrete(q.TaskDisc)
		if err != nil {
			return nil, err
		}
		return core.TryNewDynamicDiscrete(q.R, law, ckpt)
	}
	law, err := lawspec.Parse(q.Task)
	if err != nil {
		return nil, err
	}
	return core.TryNewDynamic(q.R, law, ckpt)
}

// answer materializes the flat Answer for this entry. Value-typed and
// allocation-free: every string it carries is shared with the entry.
func (e *entry) answer(fp uint64, q Query) Answer {
	ans := Answer{Mode: e.art.Mode, Fingerprint: httpd.Hex64(fp), R: e.art.R}
	switch {
	case e.art.Preempt != nil:
		t := e.art.Preempt
		ans.X, ans.ExpectedWork = t.X, t.ExpectedWork
		ans.Method, ans.Interior = t.Method, t.Interior
		ans.PessX, ans.PessWork = t.PessX, t.PessWork
		ans.Gain = t.Gain
	case e.art.Static != nil:
		t := e.art.Static
		ans.NOpt, ans.ENOpt, ans.YOpt = t.NOpt, t.ENOpt, t.YOpt
	case e.art.Dynamic != nil:
		t := e.art.Dynamic
		ans.WInt, ans.HasWInt = t.WInt, t.HasWInt
		ans.Work, ans.Elapsed = q.Work, q.elapsed()
		ans.CheckpointNow = e.dyn.ShouldCheckpointAt(ans.Work, ans.Elapsed)
	}
	return ans
}

// --- Fingerprinting ---------------------------------------------------

// Fingerprint parts are hashed exactly like ckpt.Fingerprint hashes
// them (FNV-1a, NUL separator after every part), but incrementally and
// without materializing the part strings, so the cache-hit path does
// not allocate. FingerprintParts returns the equivalent part list; the
// tests pin ckpt.Fingerprint(FingerprintParts(q)...) == q.fingerprint().
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fingerprintVersion names the key schema and the numerics behind the
// artifacts; bump it when the fingerprint input set changes or a kernel
// change moves table values (v2: the AS241 Normal quantile; v3: dynamic
// integrals split at the kinks of bounded laws), so stale store
// artifacts miss instead of mislead.
const fingerprintVersion = "advise/v3"

func fpString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the NUL separator: h ^ 0 == h
}

func fpBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h * fnvPrime64
}

// fingerprint hashes the key fields of the query (never the decision
// state). The R rendering is the exact hex float ('x' format), so two
// R values share a fingerprint iff they share a bit pattern.
func (q Query) fingerprint() uint64 {
	h := uint64(fnvOffset64)
	h = fpString(h, fingerprintVersion)
	h = fpString(h, q.Mode)
	var buf [40]byte
	b := append(buf[:0], "R="...)
	b = strconv.AppendFloat(b, q.R, 'x', -1, 64)
	h = fpBytes(h, b)
	h = fpBytesPrefix(h, "task=", q.Task)
	h = fpBytesPrefix(h, "taskdisc=", q.TaskDisc)
	h = fpBytesPrefix(h, "ckpt=", q.Ckpt)
	return h
}

// fpBytesPrefix hashes prefix+s as one part (one trailing separator).
func fpBytesPrefix(h uint64, prefix, s string) uint64 {
	for i := 0; i < len(prefix); i++ {
		h = (h ^ uint64(prefix[i])) * fnvPrime64
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64
}

// FingerprintParts renders the query key as the ordered part list whose
// ckpt.Fingerprint hash equals Advise's fingerprint — the bridge that
// lets tests and tools reproduce the content address.
func FingerprintParts(q Query) []string {
	return []string{
		fingerprintVersion,
		q.Mode,
		"R=" + strconv.FormatFloat(q.R, 'x', -1, 64),
		"task=" + q.Task,
		"taskdisc=" + q.TaskDisc,
		"ckpt=" + q.Ckpt,
	}
}
