// Command advise serves the paper's checkpoint-policy decisions as an
// online API. Every answer ckptopt can compute — Scenario-1 optimal X*,
// static n_opt, the dynamic "checkpoint now?" decision — is a pure
// function of (mode, R, law specs), so the server builds each policy
// table once, content-addresses it by fingerprint, and answers every
// further query for that table from an immutable in-process cache
// (optionally persisted with -store, so a restart never rebuilds).
//
// Serve:
//
//	advise -listen 127.0.0.1:8426 -store /var/lib/reskit/advisor
//
// then query:
//
//	curl -d '{"mode":"dynamic","r":29,"task":"norm:3,0.5@[0,inf]",
//	          "ckpt":"norm:5,0.4@[0,inf]","work":12}' \
//	     http://127.0.0.1:8426/v1/advise
//
// and get the dynamic answer's eight keys back:
//
//	{"mode":"dynamic","fingerprint":"…","r":29,"checkpoint_now":false,
//	 "work":12,"elapsed":12,"w_int":20.265…,"has_w_int":true}
//
// Each answer carries only its own mode's keys: a static one mode,
// fingerprint, r, n_opt, e_n_opt and y_opt; a preempt one mode,
// fingerprint, r, x, expected_work, method, interior, pessimistic_x,
// pessimistic_work and gain. A failed batch item is {"error":"…"}.
//
// Endpoints: POST /v1/advise, POST /v1/advise/batch, GET /healthz, and
// GET /metrics (Prometheus text exposition of the advisor's counters,
// its build and per-endpoint latency sketches and its in-flight gauge).
//
// One-shot mode answers a single query on stdout and exits — the same
// code path the server runs, for scripts and diffing against ckptopt:
//
//	advise -q '{"mode":"preempt","r":10,"ckpt":"exp:0.5@[1,5]"}'
//
// Exit codes: 0 served/answered, 1 error, 3 interrupted by a second
// signal before the drain finished.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reskit/internal/advisor"
	"reskit/internal/httpd"
	"reskit/internal/obs"
)

// exitInterrupted mirrors cmd/simulate's convention for runs cut short
// by signals.
const exitInterrupted = 3

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "advise:", err)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8426", "address to serve the advisor API on")
	store := fs.String("store", "", "directory for persisted policy tables (empty: in-memory only)")
	oneShot := fs.String("q", "", "answer this one JSON query on stdout and exit (no server)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown deadline after a signal")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}

	reg := obs.NewRegistry()
	adv := advisor.New(advisor.Options{Dir: *store, Reg: reg})

	if *oneShot != "" {
		return oneShotQuery(out, adv, *oneShot)
	}
	return serve(out, adv, reg, *listen, *drain)
}

// oneShotQuery runs one query through the exact code path the HTTP
// handler uses and prints the answer.
func oneShotQuery(out io.Writer, adv *advisor.Advisor, body string) (int, error) {
	q, err := advisor.DecodeQuery([]byte(body))
	if err != nil {
		return 1, err
	}
	ans, err := adv.Advise(context.Background(), q)
	if err != nil {
		return 1, err
	}
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(ans); err != nil {
		return 1, err
	}
	return 0, nil
}

// serve runs the API until a signal arrives, then drains within the
// deadline. A second signal during the drain exits immediately with the
// interrupted code.
func serve(out io.Writer, adv *advisor.Advisor, reg *obs.Registry, addr string, drain time.Duration) (int, error) {
	mux := http.NewServeMux()
	mux.Handle("/", adv.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w, "reskit") //nolint:errcheck // client gone; nothing to do
	})

	srv, err := httpd.Listen(addr, mux)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "advisor: http://%s/v1/advise (batch under /v1/advise/batch, Prometheus under /metrics)\n", srv.Addr())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case <-sigc:
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(drain) }()
		select {
		case err := <-done:
			if err != nil {
				return 1, err
			}
			return 0, nil
		case <-sigc:
			return exitInterrupted, errors.New("interrupted during drain")
		}
	case err := <-srv.Err():
		// The listener died under us (port stolen, fd limit, ...).
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return 1, err
		}
		return 0, nil
	}
}
