package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// The server half of the JSON-over-HTTP convention that Client speaks:
// requests are size-capped POST bodies, and every failure is answered
// with a status code and an ErrorBody.

// ErrorBody is the {"error": ...} body of every failed JSON request;
// Client reports its message when a call fails.
type ErrorBody struct {
	Error string `json:"error"`
}

// ReadPost reads the body of a POST request of at most limit bytes. A
// request with another method gets 405 (with an Allow header), a body
// over the limit 413, and a failed read 400, each with an ErrorBody;
// ok is false then, and the response has been written.
func ReadPost(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			WriteError(w, http.StatusBadRequest, err.Error())
		}
		return nil, false
	}
	return body, true
}

// WriteJSON answers with status and v encoded as JSON, HTML escaping
// off.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// WriteError answers with status and an ErrorBody carrying msg.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg})
}

// Hex64 is a uint64 that marshals as a 16-digit hex JSON string:
// fingerprints and seeds must survive JSON consumers that parse numbers
// as float64.
type Hex64 uint64

// MarshalJSON renders the value as "%016x".
func (h Hex64) MarshalJSON() ([]byte, error) {
	return []byte(`"` + fmt.Sprintf("%016x", uint64(h)) + `"`), nil
}

// UnmarshalJSON accepts the hex-string form.
func (h *Hex64) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("httpd: hex64 must be a hex string, got %s", data)
	}
	v, err := strconv.ParseUint(string(data[1:len(data)-1]), 16, 64)
	if err != nil {
		return fmt.Errorf("httpd: bad hex64: %w", err)
	}
	*h = Hex64(v)
	return nil
}

// SleepCtx pauses for d unless ctx ends first; it reports whether the
// full pause elapsed.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
