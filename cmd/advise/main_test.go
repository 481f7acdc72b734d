package main

import (
	"bytes"
	"context"
	"encoding/json"

	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"reskit/internal/advisor"
	"reskit/internal/ckpt"
)

// syncBuffer lets the test read the announcement line while the serve
// goroutine may still be writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestOneShotAnswersLikeTheLibrary runs -q end to end and diffs every
// field against the advisor library (the same comparison the ckptopt
// bit-identity tests make inside internal/advisor).
func TestOneShotAnswersLikeTheLibrary(t *testing.T) {
	const query = `{"mode":"preempt","r":10,"ckpt":"exp:0.5@[1,5]"}`
	var buf bytes.Buffer
	code, err := run([]string{"-q", query}, &buf)
	if err != nil || code != 0 {
		t.Fatalf("run: code %d, err %v", code, err)
	}
	var got advisor.Answer
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("one-shot output is not an Answer: %v\n%s", err, buf.String())
	}
	q, err := advisor.DecodeQuery([]byte(query))
	if err != nil {
		t.Fatal(err)
	}
	want, err := advisor.New(advisor.Options{}).Advise(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("one-shot answer differs from library:\n%+v\n%+v", got, want)
	}
	if uint64(got.Fingerprint) != ckpt.Fingerprint(advisor.FingerprintParts(q)...) {
		t.Error("served fingerprint is not the canonical content address")
	}
}

func TestOneShotRejectsBadQuery(t *testing.T) {
	var buf bytes.Buffer
	if code, err := run([]string{"-q", `{"mode":"nope"}`}, &buf); code != 1 || err == nil {
		t.Fatalf("bad query: code %d, err %v", code, err)
	}
}

// TestServeEndToEnd starts the server on an ephemeral port, exercises
// /v1/advise, /v1/advise/batch, /healthz and /metrics, checks the warm
// 1k-query batch latency budget, and shuts down via the signal path.
func TestServeEndToEnd(t *testing.T) {
	var buf syncBuffer
	done := make(chan struct{})
	var code int
	var runErr error
	go func() {
		defer close(done)
		code, runErr = run([]string{"-listen", "127.0.0.1:0", "-store", t.TempDir()}, &buf)
	}()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output %q", buf.String())
		}
		out := buf.String()
		if i := strings.Index(out, "advisor: http://"); i >= 0 {
			rest := out[i+len("advisor: http://"):]
			if j := strings.Index(rest, "/v1/advise"); j >= 0 {
				base = "http://" + rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	const query = `{"mode":"dynamic","r":10,"task":"exp:0.3","ckpt":"uniform:0.3,0.7","work":2.5}`
	resp, err := http.Post(base+"/v1/advise", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	var ans advisor.Answer
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ans.Mode != "dynamic" {
		t.Fatalf("advise: status %d, answer %+v", resp.StatusCode, ans)
	}

	// Warm 1k-query batch: the table above is cached, so the entire
	// round trip — encode, 1000 lookups, decode — fits the budget.
	var batch advisor.BatchRequest
	for i := 0; i < 1000; i++ {
		q, err := advisor.DecodeQuery([]byte(query))
		if err != nil {
			t.Fatal(err)
		}
		q.Work = float64(i) / 100
		batch.Queries = append(batch.Queries, q)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err = http.Post(base+"/v1/advise/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br advisor.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if len(br.Answers) != 1000 {
		t.Fatalf("batch returned %d answers", len(br.Answers))
	}
	for i, a := range br.Answers {
		if a.Error != "" {
			t.Fatalf("batch answer %d errored: %s", i, a.Error)
		}
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("warm 1k-query batch took %v, budget 50ms", elapsed)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE reskit_advisor_queries counter",
		"reskit_advisor_cache_hits",
		"# TYPE reskit_advisor_build_ns summary",
		"# TYPE reskit_advisor_http_advise_ns summary",
		"# TYPE reskit_advisor_http_batch_ns summary",
		"# TYPE reskit_advisor_in_flight gauge",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, prom.String())
		}
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	// Shut down through the signal path and require a clean exit.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if code != 0 || runErr != nil {
		t.Fatalf("serve exit: code %d, err %v", code, runErr)
	}
}

func TestListenFailureIsAnError(t *testing.T) {
	var buf bytes.Buffer
	if code, err := run([]string{"-listen", "256.256.256.256:99999"}, &buf); code != 1 || err == nil {
		t.Fatalf("bad listen address: code %d, err %v", code, err)
	}
}

func TestFlagParseError(t *testing.T) {
	if code, _ := run([]string{"-definitely-not-a-flag"}, &bytes.Buffer{}); code != 1 {
		t.Fatalf("code %d", code)
	}
}
