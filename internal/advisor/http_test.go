package advisor

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reskit/internal/httpd"
	"reskit/internal/obs"
)

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHandlerAdvise(t *testing.T) {
	a := New(Options{})
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	body, err := json.Marshal(qDynamic)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/advise", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	got := decodeBody[Answer](t, resp)
	want := mustAdvise(t, a, qDynamic)
	if got != want {
		t.Fatalf("HTTP answer differs from direct call:\n%+v\n%+v", got, want)
	}
}

func TestHandlerMethodAndDecodeErrors(t *testing.T) {
	a := New(Options{})
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow header %q", allow)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/advise", "{nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	if e := decodeBody[map[string]string](t, resp); e["error"] == "" {
		t.Error("400 carried no error body")
	}

	resp = postJSON(t, ts.URL+"/v1/advise", `{"mode":"warp","r":1,"ckpt":"det:1"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHandlerBatch mixes valid and invalid queries: the response stays
// 200 and index-aligned, with errors inline.
func TestHandlerBatch(t *testing.T) {
	a := New(Options{})
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	req := BatchRequest{Queries: []Query{qPreempt, {Mode: "bad"}, qStatic}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/advise/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[BatchResponse](t, resp)
	if len(got.Answers) != 3 {
		t.Fatalf("%d answers, want 3", len(got.Answers))
	}
	if got.Answers[0].Error != "" || got.Answers[2].Error != "" {
		t.Errorf("valid queries errored: %+v", got.Answers)
	}
	if got.Answers[1].Error == "" {
		t.Error("invalid query did not error")
	}
	if want := mustAdvise(t, a, qPreempt); got.Answers[0].Answer != want {
		t.Errorf("batch answer 0 differs from direct call")
	}
}

func TestHandlerBatchTooLarge(t *testing.T) {
	a := New(Options{})
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchQueries; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"mode":"preempt"}`)
	}
	b.WriteString(`]}`)
	resp := postJSON(t, ts.URL+"/v1/advise/batch", b.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHandlerHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestBatchSharesTables: a batch of identical keys must build once.
func TestBatchSharesTables(t *testing.T) {
	a := New(Options{})
	queries := make([]Query, 100)
	for i := range queries {
		q := qDynamic
		q.Work = float64(i) / 10
		queries[i] = q
	}
	for _, q := range queries {
		mustAdvise(t, a, q)
	}
	if n := a.Tables(); n != 1 {
		t.Fatalf("100 same-key queries built %d tables, want 1", n)
	}
}

// serveOnce runs one POST through h in process.
func serveOnce(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// TestHandlerTelemetry: with a registry, each endpoint's latency lands
// in its own sketch, the in-flight gauge returns to zero, and /metrics
// can export all three; the response bytes are those of an advisor
// without a registry.
func TestHandlerTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	with, without := New(Options{Reg: reg}).Handler(), New(Options{}).Handler()
	query, err := qDynamic.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := BatchRequest{Queries: []Query{qPreempt, {Mode: "bad"}, qStatic, qDynamic}}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{{"/v1/advise", query}, {"/v1/advise/batch", batch}, {"/v1/advise/batch", batch}} {
		got, want := serveOnce(with, c.path, c.body), serveOnce(without, c.path, c.body)
		if got.Code != http.StatusOK || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: with a registry %d %s, without %d %s", c.path, got.Code, got.Body, want.Code, want.Body)
		}
	}
	snap := reg.Snapshot()
	if n := snap.Quantiles["advisor.http_advise_ns"].Count; n != 1 {
		t.Errorf("advisor.http_advise_ns counted %d requests, want 1", n)
	}
	if q := snap.Quantiles["advisor.http_batch_ns"]; q.Count != 2 || !(q.Min > 0) {
		t.Errorf("advisor.http_batch_ns = %+v, want 2 positive samples", q)
	}
	if g, ok := snap.Gauges["advisor.in_flight"]; !ok || g != 0 {
		t.Errorf("advisor.in_flight = %v (registered %v), want 0 between requests", g, ok)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom, "reskit"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE reskit_advisor_http_advise_ns summary", "# TYPE reskit_advisor_http_batch_ns summary", "# TYPE reskit_advisor_in_flight gauge"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics exposition lacks %q", want)
		}
	}
}

// TestHandlerTelemetryAddsNoAllocs: a warm request allocates as much
// with a registry as without one.
func TestHandlerTelemetryAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached buffers under -race; allocation counts do not hold")
	}
	query, err := qDynamic.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(reg *obs.Registry) float64 {
		h := New(Options{Reg: reg}).Handler()
		if w := serveOnce(h, "/v1/advise", query); w.Code != http.StatusOK { // warm
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return testing.AllocsPerRun(200, func() { serveOnce(h, "/v1/advise", query) })
	}
	if with, without := allocs(obs.NewRegistry()), allocs(nil); with != without {
		t.Errorf("a request allocates %.0f objects with a registry, %.0f without", with, without)
	}
}

// TestHandlerNonFiniteAnswer: an answer holding a NaN, which JSON cannot
// carry, is a 500 with an error body on both endpoints, not broken JSON.
func TestHandlerNonFiniteAnswer(t *testing.T) {
	a := New(Options{})
	q := Query{Mode: ModePreempt, R: 10, Ckpt: "exp:0.5@[1,5]"}
	a.cache.Store(&map[uint64]*entry{q.fingerprint(): {art: &Artifact{
		Mode: q.Mode, R: q.R, Ckpt: q.Ckpt, Preempt: &PreemptTable{X: 1, Gain: math.NaN()},
	}}})
	query, err := q.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := BatchRequest{Queries: []Query{qStatic, q}}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := a.Handler()
	for path, body := range map[string][]byte{"/v1/advise": query, "/v1/advise/batch": batch} {
		w := serveOnce(h, path, body)
		var e httpd.ErrorBody
		if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("%s: status %d, body %s; want 500 with an error body", path, w.Code, w.Body)
		}
	}
}
