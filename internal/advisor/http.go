package advisor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"reskit/internal/httpd"
)

// HTTP surface:
//
//	POST /v1/advise        {Query}                -> {Answer} | {"error": ...}
//	POST /v1/advise/batch  {"queries": [Query]}   -> {"answers": [BatchAnswer]}
//	GET  /healthz          -> 200 "ok"
//
// Malformed requests get a 400 with a JSON error body; a batch request
// that parses gets a 200 with per-item errors inline, so one bad query
// cannot sink the other 999.

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
	if err := json.Unmarshal(data, &q); err != nil {
		return Query{}, fmt.Errorf("advisor: bad query JSON: %w", err)
	}
	return q, nil
}

// DecodeBatch parses a batch request body and enforces the size cap.
func DecodeBatch(data []byte) (BatchRequest, error) {
	var req BatchRequest
	if err := json.Unmarshal(data, &req); err != nil {
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
	mux.HandleFunc("/v1/advise", a.handleAdvise)
	mux.HandleFunc("/v1/advise/batch", a.handleBatch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

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
	httpd.WriteJSON(w, http.StatusOK, ans)
}

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
	resp := BatchResponse{Answers: make([]BatchAnswer, len(req.Queries))}
	for i, q := range req.Queries {
		ans, err := a.Advise(r.Context(), q)
		if err != nil {
			resp.Answers[i].Error = err.Error()
			continue
		}
		resp.Answers[i].Answer = ans
	}
	httpd.WriteJSON(w, http.StatusOK, resp)
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
