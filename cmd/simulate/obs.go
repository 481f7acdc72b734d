package main

import (
	"bytes"
	"context"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"reskit"
	"reskit/internal/atomicio"
	"reskit/internal/httpd"
)

// currentReg holds the registry of the active invocation. expvar
// registration is global and irrevocable, so the published Func reads
// through this pointer instead of capturing a registry — run() can be
// invoked repeatedly (tests do) without tripping expvar's duplicate
// panic, and each invocation's metrics show up live.
var (
	currentReg  atomic.Pointer[reskit.ObsRegistry]
	publishOnce sync.Once
)

// simObs bundles the CLI's observability wiring: the instrument
// registry, the simulator observer attached to every SimConfig, the
// optional JSONL trace sink, the live progress reporter, the debug HTTP
// endpoint, and the metrics file written on exit.
type simObs struct {
	reg      *reskit.ObsRegistry
	observer *reskit.SimObserver
	progress *reskit.Progress
	trace    interface {
		Flush() error
		Close() error
	}
	metricsPath string
	srv         *httpd.Server
}

// setupObs builds the observability layer from the CLI flags; it
// returns nil when every observability flag is off, so the simulation
// configs keep a nil Obs and the hot path stays uninstrumented.
// progressTotal <= 0 renders progress without percentage/ETA (the
// workflow mode runs one Monte-Carlo per strategy, so no single total
// exists).
func setupObs(out io.Writer, progress bool, metricsPath, listenAddr, tracePath string,
	traceEvery int64, progressTotal int64) (*simObs, error) {

	if !progress && metricsPath == "" && listenAddr == "" && tracePath == "" {
		return nil, nil
	}
	o := &simObs{
		reg:         reskit.NewObsRegistry(),
		metricsPath: metricsPath,
	}
	o.observer = reskit.NewSimObserver(o.reg)
	reskit.ObserveQuadrature(o.reg)
	reskit.ObserveOptimize(o.reg)

	if tracePath != "" {
		// The sink streams into an atomic temp file; its Close (in finish)
		// commits the rename, so a crash mid-run never leaves a truncated
		// trace at the destination path.
		f, err := atomicio.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		sink := reskit.NewJSONLTraceSink(f)
		o.trace = sink
		o.observer.Trace = sink
		o.observer.TraceEvery = traceEvery
	}
	if progress {
		o.progress = reskit.NewProgress(os.Stderr, "trials", progressTotal, time.Second)
		o.observer.Progress = o.progress
		o.progress.Start(context.Background())
	}
	if listenAddr != "" {
		if err := o.listen(out, listenAddr); err != nil {
			o.shutdown()
			return nil, err
		}
	}
	currentReg.Store(o.reg)
	return o, nil
}

// listen starts the debug HTTP endpoint: expvar under /debug/vars
// (including the live "reskit" metrics snapshot), a Prometheus text
// exposition of the same registry under /metrics, and the pprof
// handlers under /debug/pprof/. The server comes from internal/httpd,
// so header-read and idle timeouts bound every connection (a slow
// client used to hold one forever). The actual bound address is
// printed, so ":0" yields a usable URL (and a testable one).
func (o *simObs) listen(out io.Writer, addr string) error {
	publishOnce.Do(func() {
		expvar.Publish("reskit", expvar.Func(func() interface{} {
			if r := currentReg.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", promHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv, err := httpd.Listen(addr, mux)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	o.srv = srv
	fmt.Fprintf(out, "observability: http://%s/debug/vars (pprof under /debug/pprof/, Prometheus under /metrics)\n", srv.Addr())
	return nil
}

// promHandler serves the live registry in Prometheus text exposition
// format. Like the expvar Func it reads through currentReg, so repeated
// run() invocations (tests) each expose their own registry.
func promHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg := currentReg.Load(); reg != nil {
			reg.WriteProm(w, "reskit") //nolint:errcheck // client gone; nothing to do
		}
	})
}

// attach installs the observer on a reservation config. Safe on a nil
// *simObs, so call sites need no guards.
func (o *simObs) attach(cfg *reskit.SimConfig) {
	if o != nil {
		cfg.Obs = o.observer
	}
}

// counted wraps a strategy so every continue/checkpoint/stop decision
// is tallied on the registry. Decisions are unchanged, so simulation
// results stay bit-identical. Safe on a nil *simObs.
func (o *simObs) counted(s reskit.Strategy) reskit.Strategy {
	if o == nil {
		return s
	}
	return reskit.CountedStrategy(s, o.reg)
}

// instrument installs the observer and the decision counters on a
// campaign's reservation config, once its strategy is in place. Safe on
// a nil *simObs.
func (o *simObs) instrument(cfg *reskit.SimConfig) {
	o.attach(cfg)
	cfg.Strategy = o.counted(cfg.Strategy)
}

// shutdown stops the endpoint, the progress reporter, and flushes the
// trace sink; it is idempotent enough for the error path of setupObs.
func (o *simObs) shutdown() {
	o.progress.Stop()
	if o.srv != nil {
		o.srv.Shutdown(2 * time.Second) //nolint:errcheck // best-effort teardown
		o.srv = nil
	}
}

// finish tears the layer down and writes the metrics file. Safe on nil;
// returns the first error that matters to the user (an unwritable
// metrics file or a trace that failed to flush).
func (o *simObs) finish() error {
	if o == nil {
		return nil
	}
	o.shutdown()
	var first error
	if o.trace != nil {
		if err := o.trace.Close(); err != nil {
			first = fmt.Errorf("trace: %w", err)
		}
	}
	if o.metricsPath != "" {
		var buf bytes.Buffer
		err := o.reg.WriteJSON(&buf)
		if err == nil {
			err = atomicio.WriteFile(o.metricsPath, buf.Bytes(), 0o644)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("-metrics: %w", err)
		}
	}
	return first
}
