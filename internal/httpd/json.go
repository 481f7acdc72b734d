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
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), min(r.ContentLength, limit))
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

// maxPresize caps the buffer a declared length buys before any body
// byte arrives: past it, a body's buffer grows only with what is read,
// so a request header alone cannot make a 64 MiB allocation.
const maxPresize = 256 << 10

// readBody reads r to EOF like io.ReadAll, into a buffer sized from
// declared, the length the peer announced (negative when unknown),
// capped at maxPresize.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared, maxPresize) + 1 // room for the read that sees EOF
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
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
	return h.AppendJSON(make([]byte, 0, 18)), nil
}

// AppendJSON appends the value's JSON form, 16 lower-case hex digits in
// quotes, to b.
func (h Hex64) AppendJSON(b []byte) []byte {
	const digits = "0123456789abcdef"
	b = append(b, '"')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[uint64(h)>>shift&0xf])
	}
	return append(b, '"')
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
