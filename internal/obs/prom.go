package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4) next to the expvar
// JSON snapshot: the same registry serves both, so any instrument wired
// for -metrics is scrapeable for free. The mapping is mechanical:
//
//	Counter   -> counter
//	Gauge     -> gauge
//	Quantiles -> summary (quantile-labelled samples plus _count) with
//	             <name>_min / <name>_max gauges alongside
//
// Instrument names use dots ("engine.jobs_done"); Prometheus metric
// names cannot, so every byte outside [a-zA-Z0-9_:] becomes '_' and the
// configured namespace is prefixed ("reskit_engine_jobs_done").

// WriteProm renders a point-in-time snapshot of the registry in
// Prometheus text exposition format. namespace prefixes every metric
// name ("" omits the prefix).
func (r *Registry) WriteProm(w io.Writer, namespace string) error {
	return WriteProm(w, namespace, r.Snapshot())
}

// WriteProm renders an already-cut snapshot in Prometheus text
// exposition format. Metrics are emitted in sorted name order, so the
// output is deterministic for a given snapshot.
func WriteProm(w io.Writer, namespace string, s Snapshot) error {
	ew := &errWriter{w: w}
	for _, name := range sortedKeys(s.Counters) {
		n := promName(namespace, name)
		fmt.Fprintf(ew, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := promName(namespace, name)
		fmt.Fprintf(ew, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Quantiles) {
		writePromQuantiles(ew, promName(namespace, name), s.Quantiles[name])
	}
	return ew.err
}

// writePromQuantiles renders one quantile sketch as a summary. The
// sketch keeps no running sum, so only _count is emitted; min/max ride
// along as gauges because tails are what the sketch is for.
func writePromQuantiles(w io.Writer, n string, q QuantilesSnapshot) {
	fmt.Fprintf(w, "# TYPE %s summary\n", n)
	fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", n, promFloat(q.P50))
	fmt.Fprintf(w, "%s{quantile=\"0.9\"} %s\n", n, promFloat(q.P90))
	fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", n, promFloat(q.P99))
	fmt.Fprintf(w, "%s_count %d\n", n, q.Count)
	fmt.Fprintf(w, "# TYPE %s_min gauge\n%s_min %s\n", n, n, promFloat(q.Min))
	fmt.Fprintf(w, "# TYPE %s_max gauge\n%s_max %s\n", n, n, promFloat(q.Max))
}

// promName prefixes the namespace and replaces every byte Prometheus
// rejects in a metric name with '_'. A leading digit is also escaped,
// though no instrument in this repository starts with one.
func promName(namespace, name string) string {
	out := make([]byte, 0, len(namespace)+1+len(name))
	if namespace != "" {
		out = append(out, namespace...)
		out = append(out, '_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if len(out) == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// promFloat formats a float the way the exposition format expects;
// strconv renders ±Inf as "+Inf"/"-Inf" and NaN as "NaN", both valid.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter latches the first write error so the render loop needs no
// per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// sortedKeys returns the sorted keys of any string-keyed map.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
