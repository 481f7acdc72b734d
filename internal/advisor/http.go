package advisor

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"reskit/internal/httpd"
	"reskit/internal/obs"
)

// HTTP surface:
//
//	POST /v1/advise        {Query}                -> {Answer} | {"error": ...}
//	POST /v1/advise/batch  {"queries": [Query]}   -> {"answers": [BatchAnswer]}
//	GET  /healthz          -> 200 "ok"
//
// Malformed requests get a 400 with a JSON error body; a batch request
// that parses gets a 200 with per-item errors inline, so one bad query
// cannot sink the other 999. Each answer carries its own mode's keys
// (wire.go); an answer holding a NaN or an infinity, which JSON cannot
// carry, gets a 500. With Options.Reg set, each endpoint's latency goes
// to a sketch and the requests being served to the advisor.in_flight
// gauge.

const (
	// maxRequestBytes bounds a request body; at ~200 bytes per query it
	// comfortably fits maxBatchQueries.
	maxRequestBytes = 4 << 20
	// maxBatchQueries bounds one batch request.
	maxBatchQueries = 10000
)

// BatchRequest is the body of POST /v1/advise/batch.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// BatchAnswer is one element of a batch response: the answer, or the
// error that query produced.
type BatchAnswer struct {
	Answer
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a batch reply; Answers is index-aligned
// with the request's Queries.
type BatchResponse struct {
	Answers []BatchAnswer `json:"answers"`
}

// DecodeQuery parses one JSON query body. Split out (and fuzzed) so the
// request decoder's robustness is testable without a socket.
func DecodeQuery(data []byte) (Query, error) {
	var q Query
	if err := q.UnmarshalJSON(data); err != nil {
		return Query{}, fmt.Errorf("advisor: bad query JSON: %w", err)
	}
	return q, nil
}

// DecodeBatch parses a batch request body and enforces the size cap.
func DecodeBatch(data []byte) (BatchRequest, error) {
	var req BatchRequest
	if err := req.UnmarshalJSON(data); err != nil {
		return BatchRequest{}, fmt.Errorf("advisor: bad batch JSON: %w", err)
	}
	if len(req.Queries) > maxBatchQueries {
		return BatchRequest{}, fmt.Errorf("advisor: batch of %d queries exceeds the %d limit", len(req.Queries), maxBatchQueries)
	}
	return req, nil
}

// Handler returns the advisor's HTTP mux. The caller wires it into a
// hardened server (internal/httpd) and mounts any extra endpoints
// (/metrics, /debug/vars) beside it.
func (a *Advisor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/advise", a.timed(a.httpAdviseNS, a.handleAdvise))
	mux.HandleFunc("/v1/advise/batch", a.timed(a.httpBatchNS, a.handleBatch))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// timed wraps an endpoint in its latency sketch and the in-flight
// gauge. Without a registry it returns h itself, which reads no clock.
func (a *Advisor) timed(latency *obs.Quantiles, h http.HandlerFunc) http.HandlerFunc {
	if latency == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		a.inFlight.Add(1)
		defer func() {
			a.inFlight.Add(-1)
			latency.Observe(float64(time.Since(start)))
		}()
		h(w, r)
	}
}

// bufPool holds response buffers, so a warm server encodes its answers
// without allocating.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func (a *Advisor) handleAdvise(w http.ResponseWriter, r *http.Request) {
	body, ok := httpd.ReadPost(w, r, maxRequestBytes)
	if !ok {
		return
	}
	q, err := DecodeQuery(body)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ans, err := a.Advise(r.Context(), q)
	if err != nil {
		httpd.WriteError(w, statusFor(err), err.Error())
		return
	}
	buf := bufPool.Get().(*[]byte)
	e := encoder{b: (*buf)[:0]}
	ans.encode(&e)
	e.raw("\n")
	writeEncoded(w, &e)
	*buf = e.b
	bufPool.Put(buf)
}

// handleBatch answers every query of the batch in order, appending each
// answer to the response as it is computed.
func (a *Advisor) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := httpd.ReadPost(w, r, maxRequestBytes)
	if !ok {
		return
	}
	req, err := DecodeBatch(body)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	buf := bufPool.Get().(*[]byte)
	e := encoder{b: (*buf)[:0]}
	e.raw(`{"answers":[`)
	for i, q := range req.Queries {
		if i > 0 {
			e.raw(",")
		}
		var item BatchAnswer
		if item.Answer, err = a.Advise(r.Context(), q); err != nil {
			item.Error = err.Error()
		}
		item.encode(&e)
	}
	e.raw("]}\n")
	if e.err == nil {
		// A body past net/http's own 2 KB buffer would go out chunked,
		// and the client could not size its read.
		w.Header().Set("Content-Length", strconv.Itoa(len(e.b)))
	}
	writeEncoded(w, &e)
	*buf = e.b
	bufPool.Put(buf)
}

// writeEncoded answers 200 with the encoded body, or 500 when the body
// held a value JSON cannot carry. Callers end the body with a newline,
// as httpd.WriteJSON ends its bodies.
func writeEncoded(w http.ResponseWriter, e *encoder) {
	if e.err != nil {
		httpd.WriteError(w, http.StatusInternalServerError, "advisor: encoding the answer: "+e.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.b) //nolint:errcheck // the connection is gone; nothing to do
}

// statusFor maps an Advise error to an HTTP status: context
// cancellation means the client went away or the build deadline hit;
// everything else is the client's query.
func statusFor(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
