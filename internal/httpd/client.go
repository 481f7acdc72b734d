package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"time"
)

// Client-side boundary timeouts. The server half of this package exists
// because a zero-value http.Server never times anything out; the client
// half exists for the mirror-image gap: a zero-value http.Client dials
// forever and waits on a dead peer forever, so a worker whose
// coordinator vanished would hang instead of erroring, retrying, or
// exiting. Every in-repo HTTP client goes through NewClient so the
// bounds are set once.
const (
	// ConnectTimeout bounds the TCP dial: a peer that is gone fails fast
	// instead of pinning the caller in SYN retransmits.
	ConnectTimeout = 5 * time.Second
	// RequestTimeout bounds one whole request-response exchange,
	// including reading the body.
	RequestTimeout = 30 * time.Second
	// ClientIdleTimeout reaps idle keep-alive connections.
	ClientIdleTimeout = 90 * time.Second
	// maxResponseBytes caps a response body read by PostJSON; the
	// protocol replies in this repository are small, and an unbounded
	// read would let a broken peer exhaust the client's memory.
	maxResponseBytes = 16 << 20
)

// Default retry schedule of NewClient: retries+1 total attempts with a
// linearly growing, context-aware pause between them.
const (
	defaultClientRetries = 3
	defaultClientBackoff = 100 * time.Millisecond
)

// Client is the hardened HTTP client shared by every in-repo peer-to-
// peer path (worker -> coordinator above all): connect and request
// timeouts so a dead peer costs bounded time, and bounded retries with
// backoff so a transient refusal or a 5xx does not fail the caller on
// the first try.
//
// Retries re-send the request body, so Client must only be pointed at
// idempotent endpoints — which every endpoint in this repository is:
// the distributed-run protocol deduplicates results by job index, and
// the advisor's answers are pure functions of the query.
type Client struct {
	hc      *http.Client
	retries int
	backoff time.Duration
}

// NewClient returns a client with the boundary timeouts and the default
// retry schedule.
func NewClient() *Client {
	dialer := &net.Dialer{Timeout: ConnectTimeout}
	return &Client{
		hc: &http.Client{
			Timeout: RequestTimeout,
			Transport: &http.Transport{
				DialContext:         dialer.DialContext,
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     ClientIdleTimeout,
			},
		},
		retries: defaultClientRetries,
		backoff: defaultClientBackoff,
	}
}

// SetRetry overrides the retry schedule: retries extra attempts after
// the first (0 disables retrying), backoff the base pause between them.
func (c *Client) SetRetry(retries int, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	c.retries = retries
	c.backoff = backoff
}

// SetTransport wraps or replaces the underlying transport — the seam
// the chaos network plane installs itself through. The client-level
// request timeout still applies.
func (c *Client) SetTransport(rt http.RoundTripper) { c.hc.Transport = rt }

// Transport returns the current underlying transport, so a wrapper can
// chain to it.
func (c *Client) Transport() http.RoundTripper { return c.hc.Transport }

// StatusError reports a non-2xx response that is not retryable (4xx):
// the peer understood the request and rejected it, so re-sending the
// same bytes cannot help. Message carries the peer's decoded error
// body, when it sent one.
type StatusError struct {
	Status  int
	Message string
}

// Error formats the rejection.
func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("httpd: peer rejected request: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
	}
	return fmt.Sprintf("httpd: peer rejected request: %d %s", e.Status, http.StatusText(e.Status))
}

// PostJSON posts in as a JSON body to url and decodes the JSON response
// into out (out may be nil to discard the body). Transport errors, 5xx
// responses and 429s are retried up to the client's budget with a
// growing context-aware pause; 4xx responses return a *StatusError
// immediately. The request body is marshalled once and replayed on each
// attempt, so the peer sees identical bytes every time.
//
// When in implements json.Marshaler, or out json.Unmarshaler, PostJSON
// calls that method directly instead of going through encoding/json,
// whose reflective walk and validation scans cost more than a
// hand-written codec (the advisor's wire types). Such a MarshalJSON must
// write complete, valid JSON, and such an UnmarshalJSON must reject
// invalid input itself; it sees the body without surrounding
// whitespace, as encoding/json would hand it over.
func (c *Client) PostJSON(ctx context.Context, url string, in, out any) error {
	body, err := marshal(in)
	if err != nil {
		return fmt.Errorf("httpd: encoding request for %s: %w", url, err)
	}
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return fmt.Errorf("%w (last attempt: %v)", err, last)
			}
			return err
		}
		retryable, err := c.postOnce(ctx, url, body, out)
		if err == nil {
			return nil
		}
		last = err
		if !retryable || attempt >= c.retries {
			return err
		}
		if !SleepCtx(ctx, time.Duration(attempt+1)*c.backoff) {
			return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), last)
		}
	}
}

// postOnce performs one attempt. retryable marks transport-level and
// server-side (5xx/429) failures; decode errors and 4xx are final.
func (c *Client) postOnce(ctx context.Context, url string, body []byte, out any) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("httpd: building request for %s: %w", url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		// The context's own cancellation is final; every other transport
		// error (refused, reset, timeout) is worth another attempt.
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return true, fmt.Errorf("httpd: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := readBody(io.LimitReader(resp.Body, maxResponseBytes), min(resp.ContentLength, maxResponseBytes))
	if err != nil {
		return true, fmt.Errorf("httpd: reading %s response: %w", url, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		serr := &StatusError{Status: resp.StatusCode, Message: decodeErrorBody(data)}
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return true, fmt.Errorf("httpd: POST %s: %w", url, serr)
		}
		return false, serr
	}
	if out == nil {
		return false, nil
	}
	if err := unmarshal(data, out); err != nil {
		return false, fmt.Errorf("httpd: decoding %s response: %w", url, err)
	}
	return false, nil
}

// marshal encodes v, calling its own MarshalJSON when it has one.
func marshal(v any) ([]byte, error) {
	if m, ok := v.(json.Marshaler); ok && !isNilPointer(v) {
		return m.MarshalJSON()
	}
	return json.Marshal(v)
}

// unmarshal decodes data into v, calling its own UnmarshalJSON when it
// has one.
func unmarshal(data []byte, v any) error {
	if u, ok := v.(json.Unmarshaler); ok && !isNilPointer(v) {
		return u.UnmarshalJSON(bytes.Trim(data, " \t\r\n"))
	}
	return json.Unmarshal(data, v)
}

// isNilPointer reports whether v is a nil pointer, which encoding/json
// handles and a method call would not.
func isNilPointer(v any) bool {
	rv := reflect.ValueOf(v)
	return rv.Kind() == reflect.Pointer && rv.IsNil()
}

// decodeErrorBody extracts the conventional {"error": ...} message from
// an error response, falling back to a bounded raw prefix.
func decodeErrorBody(data []byte) string {
	var e ErrorBody
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	const max = 200
	if len(data) > max {
		data = data[:max]
	}
	return string(bytes.TrimSpace(data))
}
