package obs

import (
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one exposition sample: name{labels} value. The
// format also allows timestamps; we never emit them.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? \S+$`)

// checkExposition validates every line of a rendered exposition: TYPE
// comments announce a known type, every sample line parses, and every
// sample's base name was announced by a preceding TYPE line.
func checkExposition(t *testing.T, out string) map[string]string {
	t.Helper()
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown type in %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok {
				if _, announced := types[b]; announced {
					base = b
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no TYPE announcement", name)
		}
		value := line[strings.LastIndex(line, " ")+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("sample %q has unparseable value %q", line, value)
		}
	}
	return types
}

func TestWritePromAllInstrumentKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.trials").Add(42)
	r.Gauge("engine.jobs_per_sec").Set(123.5)
	q := r.Quantiles("engine.ns_per_job")
	for i := 0; i < 100; i++ {
		q.Observe(float64(i))
	}

	var b strings.Builder
	if err := r.WriteProm(&b, "reskit"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	types := checkExposition(t, out)

	for name, want := range map[string]string{
		"reskit_sim_trials":          "counter",
		"reskit_engine_jobs_per_sec": "gauge",
		"reskit_engine_ns_per_job":   "summary",
	} {
		if types[name] != want {
			t.Errorf("%s announced as %q, want %q", name, types[name], want)
		}
	}
	for _, want := range []string{
		"reskit_sim_trials 42",
		"reskit_engine_jobs_per_sec 123.5",
		`reskit_engine_ns_per_job{quantile="0.5"}`,
		"reskit_engine_ns_per_job_count 100",
		"reskit_engine_ns_per_job_min 0",
		"reskit_engine_ns_per_job_max 99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromNameSanitization(t *testing.T) {
	if got := promName("reskit", "engine.ns_per_job.p50"); got != "reskit_engine_ns_per_job_p50" {
		t.Errorf("promName = %q", got)
	}
	if got := promName("", "9lives"); got != "_9lives" {
		t.Errorf("leading digit: %q", got)
	}
	if got := promName("", "a-b/c d"); got != "a_b_c_d" {
		t.Errorf("punctuation: %q", got)
	}
}

func TestWritePromEmptyRegistry(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().WriteProm(&b, "reskit"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty registry rendered %q", b.String())
	}
	// And the nil registry is a no-op like every other obs entry point.
	var r *Registry
	if err := r.WriteProm(&b, "reskit"); err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWritePromPropagatesWriteError(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	if err := r.WriteProm(failWriter{}, "x"); err == nil {
		t.Fatal("write error swallowed")
	}
}
