package sim

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"reskit/internal/core"
	"reskit/internal/engine"
	"reskit/internal/fault"
	"reskit/internal/rng"
)

// Grid is the engine job layout of a Monte-Carlo experiment, and the
// only way one becomes engine jobs: the library's MonteCarlo* calls,
// every cmd/simulate mode and both cmd/distrun roles build one. Its rows
// are Monte-Carlos of one kind of trial — reservations, campaigns or
// preemptible trials — of Trials trials each, in NumBlocks fixed blocks,
// laid out row-major over (row, block): job i runs block i%NumBlocks of
// row i/NumBlocks on rng substream i%NumBlocks, which is what a one-row
// run of that row draws. So job i means the same work — name, stream and
// payload bytes — whichever binary runs it, and their snapshots
// interchange. Merging a row's payloads (Row) in block order with the
// kind's Merge*Payloads gives the row's aggregate, bit-identical for any
// worker count and any mix of restored and recomputed jobs.
type Grid struct {
	Trials    int       // trials per row
	NumBlocks int       // blocks per row
	MTBFs     []float64 // the MTBF of each row of a fault sweep; nil for other grids

	rows  []gridRow
	check func([]byte) error // parses one payload of the grid's kind
}

// gridRow is one row of a grid: the prefix of its job names ("" names
// them block<b>) and the runner of its blocks. block returns block b's
// encoded partial aggregate, or ctx's error when cancelled mid-block: a
// block is all-or-nothing, so it can be re-run on resume.
type gridRow struct {
	name  string
	block func(ctx context.Context, b int, src *rng.Source) ([]byte, error)
}

// ReservationRow is one per-reservation Monte-Carlo of a grid: trials of
// Cfg, under the clairvoyant RunOracle when Oracle is set. Name labels
// its jobs.
type ReservationRow struct {
	Name   string
	Cfg    Config
	Oracle bool
}

// ReservationGrid lays rows out over trials reservations each; merge a
// row with MergeMonteCarloPayloads. It panics on an invalid row
// configuration.
func ReservationGrid(trials int, rows ...ReservationRow) *Grid {
	g := &Grid{Trials: trials, NumBlocks: numMonteCarloBlocks(trials), check: func(data []byte) error {
		var a Aggregate
		return decodeAggregate(data, &a)
	}}
	for _, r := range rows {
		r.Cfg.validate()
		g.rows = append(g.rows, gridRow{r.Name, func(ctx context.Context, b int, src *rng.Source) ([]byte, error) {
			agg, complete := runMCBlock(r.Cfg, trials, b, src, r.Oracle, ctx.Done())
			if !complete {
				return nil, interruptErr(ctx)
			}
			return encodeAggregate(&agg), nil
		}})
	}
	return g
}

// PreemptibleRow is one Monte-Carlo of the preemptible scenario
// (Section 3) in a grid: the checkpoint started X before the end of P's
// reservation or, when Oracle is set, exactly the realized checkpoint
// duration before it, the per-trial upper bound on any X policy. Name
// labels its jobs.
type PreemptibleRow struct {
	Name   string
	P      *core.Preemptible
	X      float64
	Oracle bool
}

// PreemptibleGrid lays rows out over trials preemptible trials each;
// merge a row with MergePreemptiblePayloads.
func PreemptibleGrid(trials int, rows ...PreemptibleRow) *Grid {
	g := &Grid{Trials: trials, NumBlocks: numMonteCarloBlocks(trials), check: func(data []byte) error {
		var p preemptPartial
		return decodePreemptPartial(data, &p)
	}}
	for _, r := range rows {
		trial := preemptTrial(r.P, r.X, r.Oracle)
		g.rows = append(g.rows, gridRow{r.Name, func(ctx context.Context, b int, src *rng.Source) ([]byte, error) {
			p, complete := runPreemptBlock(trial, trials, b, src, ctx.Done())
			if !complete {
				return nil, interruptErr(ctx)
			}
			return encodePreemptPartial(&p), nil
		}})
	}
	return g
}

// CampaignGrid returns the one-row grid of trials campaigns of cfg, its
// jobs named block<b>; merge it with MergeCampaignPayloads. It panics on
// an invalid configuration.
func CampaignGrid(cfg CampaignConfig, trials int) *Grid {
	return campaignGrid(trials, nil, []CampaignConfig{cfg})
}

// FaultSweepGrid returns the grid of a fault sweep over cfg: one row per
// MTBF of sweep (see faultSweepConfigs), its jobs named
// mtbf=<MTBF>/block<b>.
func FaultSweepGrid(cfg CampaignConfig, sweep string, trials int) (*Grid, error) {
	mtbfs, rows, err := faultSweepConfigs(cfg, sweep)
	if err != nil {
		return nil, err
	}
	return campaignGrid(trials, mtbfs, rows), nil
}

// campaignGrid lays the campaign rows out, named by their MTBFs when
// mtbfs is set.
func campaignGrid(trials int, mtbfs []float64, rows []CampaignConfig) *Grid {
	g := &Grid{Trials: trials, NumBlocks: NumCampaignBlocks(trials), MTBFs: mtbfs, check: CheckCampaignPayload}
	for ri, cfg := range rows {
		cfg.validate()
		name := ""
		if mtbfs != nil {
			name = fmt.Sprintf("mtbf=%g", mtbfs[ri])
		}
		g.rows = append(g.rows, gridRow{name, func(ctx context.Context, b int, src *rng.Source) ([]byte, error) {
			return CampaignBlockPayload(ctx, cfg, trials, b, src)
		}})
	}
	return g
}

// NumJobs returns the number of jobs in the grid.
func (g *Grid) NumJobs() int { return len(g.rows) * g.NumBlocks }

// JobName renders job i's canonical name: <row name>/block<b>, or
// block<b> in an unnamed row.
func (g *Grid) JobName(i int) string {
	if name := g.rows[i/g.NumBlocks].name; name != "" {
		return fmt.Sprintf("%s/block%d", name, i%g.NumBlocks)
	}
	return fmt.Sprintf("block%d", i%g.NumBlocks)
}

// Job builds job i: its canonical name, its block's rng substream, and
// the block payload of its row.
func (g *Grid) Job(i int) engine.Job {
	row, b := &g.rows[i/g.NumBlocks], i%g.NumBlocks
	return engine.Job{
		Name:   g.JobName(i),
		Stream: uint64(b),
		Run: func(ctx context.Context, src *rng.Source) (engine.JobResult, error) {
			data, err := row.block(ctx, b, src)
			return engine.JobResult{Payload: data}, err
		},
	}
}

// Jobs returns every job of the grid, in job order.
func (g *Grid) Jobs() []engine.Job {
	jobs := make([]engine.Job, g.NumJobs())
	for i := range jobs {
		jobs[i] = g.Job(i)
	}
	return jobs
}

// Check validates a restored job payload — the engine's and the
// coordinator's restore hook.
func (g *Grid) Check(_ int, payload []byte) error { return g.check(payload) }

// Row returns the payloads of row ri from a job-ordered payload list,
// ready for the grid kind's Merge*Payloads.
func (g *Grid) Row(payloads [][]byte, ri int) [][]byte {
	return payloads[ri*g.NumBlocks : (ri+1)*g.NumBlocks]
}

// runGrid is the library's Monte-Carlo path: it runs g's jobs through
// engine.Run on workers (all CPUs when workers <= 0), with no snapshot
// and no failure policy, and merges the payloads of g's one row with
// merge.
func runGrid[A any](g *Grid, seed uint64, workers int, merge func([][]byte) (A, error)) A {
	// A grid job fails only when its context is cancelled, and this one
	// never is, so Run cannot fail.
	res, _ := engine.Run(context.Background(), engine.Spec{Jobs: g.Jobs(), Seed: seed, Workers: workers})
	agg, err := merge(res.Payloads)
	if err != nil {
		panic(err) // the grid's own payloads always parse
	}
	return agg
}

// parseFaultSweep parses a comma-separated MTBF grid such as "25,50,100".
func parseFaultSweep(sweep string) ([]float64, error) {
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

// faultSweepConfigs parses the sweep grid and builds one campaign
// configuration per row: the base campaign with its crash model swapped
// for an exponential arrival at rate 1/MTBF, every other configured
// fault model kept. The configs are fixed up front so every job closure
// over them is pure.
func faultSweepConfigs(cfg CampaignConfig, sweep string) ([]float64, []CampaignConfig, error) {
	mtbfs, err := parseFaultSweep(sweep)
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
