package sim

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"reskit/internal/engine"
	"reskit/internal/fault"
	"reskit/internal/rng"
)

// Campaign job grids, shared by cmd/simulate (-campaign, -faultsweep)
// and both cmd/distrun roles through cmd/internal/campaign: every side
// must derive the identical per-row configurations, job layout and
// names from the same flags, or their payloads (and snapshots) would
// silently diverge.

// ParseFaultSweep parses a comma-separated MTBF grid such as "25,50,100".
func ParseFaultSweep(sweep string) ([]float64, error) {
	var mtbfs []float64
	for _, f := range strings.Split(sweep, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("sim: bad sweep MTBF %q: %w", f, err)
		}
		if !(v > 0) {
			return nil, fmt.Errorf("sim: sweep MTBF must be positive, got %g", v)
		}
		mtbfs = append(mtbfs, v)
	}
	return mtbfs, nil
}

// FaultSweepConfigs parses the sweep grid and builds one campaign
// configuration per row: the base campaign with its crash model swapped
// for an exponential arrival at rate 1/MTBF, every other configured
// fault model kept. The configs are fixed up front so every job closure
// over them is pure.
func FaultSweepConfigs(cfg CampaignConfig, sweep string) ([]float64, []CampaignConfig, error) {
	mtbfs, err := ParseFaultSweep(sweep)
	if err != nil {
		return nil, nil, err
	}
	cfgs := make([]CampaignConfig, len(mtbfs))
	for i, m := range mtbfs {
		c := cfg
		p := &fault.Plan{}
		if cfg.Reservation.Faults != nil {
			*p = *cfg.Reservation.Faults
		}
		crash, cerr := fault.NewExpArrival(1 / m)
		if cerr != nil {
			return nil, nil, cerr
		}
		p.Crash = crash
		c.Reservation.Faults = p
		cfgs[i] = c
	}
	return mtbfs, cfgs, nil
}

// FaultSweepJobName renders the canonical name of sweep job i — row-major
// over (MTBF row, block) — shared by both CLIs so ledgers, leases and
// logs agree on what job i is.
func FaultSweepJobName(mtbfs []float64, numBlocks, i int) string {
	return fmt.Sprintf("mtbf=%g/block%d", mtbfs[i/numBlocks], i%numBlocks)
}

// SweepGrid is the engine job layout of a campaign Monte-Carlo: the
// campaign rows (one for a plain campaign, one per MTBF for a fault
// sweep), laid out row-major over (row, block). Job i runs block
// i%NumBlocks of row i/NumBlocks on rng substream i%NumBlocks, so job i
// means the same work — name, stream and payload bytes — whichever
// binary runs it, and their snapshots interchange.
type SweepGrid struct {
	Rows      []CampaignConfig
	MTBFs     []float64 // one per row for a fault sweep; nil for a plain campaign
	Trials    int
	NumBlocks int
}

// CampaignGrid returns the one-row grid of a plain campaign; its jobs
// are named "block<b>".
func CampaignGrid(cfg CampaignConfig, trials int) *SweepGrid {
	return &SweepGrid{Rows: []CampaignConfig{cfg}, Trials: trials, NumBlocks: NumCampaignBlocks(trials)}
}

// FaultSweepGrid returns the grid of a fault sweep over cfg: one row per
// MTBF of sweep (see FaultSweepConfigs), jobs named by FaultSweepJobName.
func FaultSweepGrid(cfg CampaignConfig, sweep string, trials int) (*SweepGrid, error) {
	mtbfs, rows, err := FaultSweepConfigs(cfg, sweep)
	if err != nil {
		return nil, err
	}
	return &SweepGrid{Rows: rows, MTBFs: mtbfs, Trials: trials, NumBlocks: NumCampaignBlocks(trials)}, nil
}

// NumJobs returns the number of jobs in the grid.
func (g *SweepGrid) NumJobs() int { return len(g.Rows) * g.NumBlocks }

// JobName renders job i's canonical name.
func (g *SweepGrid) JobName(i int) string {
	if g.MTBFs != nil {
		return FaultSweepJobName(g.MTBFs, g.NumBlocks, i)
	}
	return fmt.Sprintf("block%d", i)
}

// Job builds job i: its canonical name, its block's rng substream, and
// the campaign block payload of its row.
func (g *SweepGrid) Job(i int) engine.Job {
	cfg, b := g.Rows[i/g.NumBlocks], i%g.NumBlocks
	return engine.Job{
		Name:   g.JobName(i),
		Stream: uint64(b),
		Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			data, err := CampaignBlockPayload(ctx, cfg, g.Trials, b, src)
			return engine.JobResult{Payload: data}, err
		},
	}
}

// Jobs returns every job of the grid, in job order.
func (g *SweepGrid) Jobs() []engine.Job {
	jobs := make([]engine.Job, g.NumJobs())
	for i := range jobs {
		jobs[i] = g.Job(i)
	}
	return jobs
}

// Check validates a restored job payload — the engine's and the
// coordinator's restore hook.
func (g *SweepGrid) Check(_ int, payload []byte) error { return CheckCampaignPayload(payload) }

// Row returns the payloads of row ri from a job-ordered payload list,
// ready for MergeCampaignPayloads.
func (g *SweepGrid) Row(payloads [][]byte, ri int) [][]byte {
	return payloads[ri*g.NumBlocks : (ri+1)*g.NumBlocks]
}
