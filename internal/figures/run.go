package figures

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"reskit/internal/atomicio"
	"reskit/internal/engine"
	"reskit/internal/obs"
	"reskit/internal/quad"
	"reskit/internal/rng"
)

// Rendered is one figure's output: the text block its command prints,
// whether the figure failed to reproduce, and the files the engine
// writes atomically when the figure's job commits.
type Rendered struct {
	Text      string
	Failed    bool
	Artifacts []engine.Artifact
}

// RunOptions are the observability flags of the figure commands.
type RunOptions struct {
	Progress    bool   // live per-figure progress on stderr
	MetricsPath string // JSON snapshot of the engine and quadrature counters, written on exit
}

// payload is the engine payload of one figure job.
type payload struct {
	Text   string `json:"text"`
	Failed bool   `json:"failed"`
}

// Run renders each generator's figure as one job of the run engine, so
// the figures build in parallel, then hands their text blocks to emit in
// generator order: the output reads the same for any worker count. It
// returns how many figures failed to reproduce. With MetricsPath set, the
// snapshot is written after emit returns.
func Run(ctx context.Context, gens []Generator, o RunOptions,
	render func(*Figure) (Rendered, error), emit func(texts []string) error) (failures int, err error) {

	var reg *obs.Registry
	if o.MetricsPath != "" {
		reg = obs.NewRegistry()
		quad.ObserveEvals(reg.Counter("quad.evals"))
	}
	var prog *obs.Progress
	if o.Progress {
		prog = obs.NewProgress(os.Stderr, "figures", int64(len(gens)), time.Second)
		prog.Start(ctx)
		defer prog.Stop()
	}

	jobs := make([]engine.Job, len(gens))
	for i := range gens {
		g := gens[i]
		jobs[i] = engine.Job{
			Name:   g.ID,
			Stream: uint64(i),
			Run: func(context.Context, *rng.Source) (engine.JobResult, error) {
				fig := g.Make()
				r, err := render(&fig)
				if err != nil {
					return engine.JobResult{}, err
				}
				data, err := json.Marshal(payload{Text: r.Text, Failed: r.Failed})
				if err != nil {
					return engine.JobResult{}, err
				}
				return engine.JobResult{Payload: data, Artifacts: r.Artifacts}, nil
			},
		}
	}
	res, err := engine.Run(ctx, engine.Spec{Jobs: jobs, Reg: reg, Progress: prog})
	if err != nil {
		return 0, err
	}

	texts := make([]string, 0, len(res.Payloads))
	for _, data := range res.Payloads {
		var p payload
		if err := json.Unmarshal(data, &p); err != nil {
			return failures, err
		}
		texts = append(texts, p.Text)
		if p.Failed {
			failures++
		}
	}
	if err := emit(texts); err != nil {
		return failures, err
	}
	if o.MetricsPath != "" {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			return failures, err
		}
		if err := atomicio.WriteFile(o.MetricsPath, buf.Bytes(), 0o644); err != nil {
			return failures, fmt.Errorf("-metrics: %w", err)
		}
	}
	return failures, nil
}
