package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"reskit/internal/engine"
	"reskit/internal/fault"
	"reskit/internal/rng"
	"reskit/internal/stats"
	"reskit/internal/strategy"
)

// streamTestConfig is a small, fault-free campaign the stream tests can
// run thousands of trials of cheaply.
func streamTestConfig() CampaignConfig {
	return CampaignConfig{
		Reservation: Config{
			R:        29,
			Recovery: 1.5,
			Task:     paperTask(),
			Ckpt:     paperCkpt(5, 0.4),
			Strategy: strategy.NewWorkThreshold(20),
		},
		TotalWork: 100,
	}
}

// streamPayloads runs the first n stream blocks exactly as the engine
// would: block b on rng substream b of seed.
func streamPayloads(t *testing.T, cfg CampaignConfig, seed uint64, n int) [][]byte {
	t.Helper()
	cs, err := NewCampaignStream(cfg, stats.StopSpec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	src := cs.Source()
	payloads := make([][]byte, 0, n)
	for b := 0; b < n; b++ {
		job, ok := src.Next()
		if !ok {
			t.Fatalf("stream source dried up at block %d", b)
		}
		res, err := job.Run(context.Background(), rng.NewStream(seed, job.Stream))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, res.Payload)
	}
	return payloads
}

// TestCampaignStreamMatchesFixedGrid: for a whole-block trial count, the
// streamed aggregate must be bit-identical to the fixed-grid campaign of
// the same trials — same blocks, same substreams, same trials, only the
// drain differs.
func TestCampaignStreamMatchesFixedGrid(t *testing.T) {
	cfg := streamTestConfig()
	const seed, blocks = 11, 4
	trials := blocks * StreamBlockTrials

	cs, err := NewCampaignStream(cfg, stats.StopSpec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range streamPayloads(t, cfg, seed, blocks) {
		if err := CheckCampaignStreamPayload(p); err != nil {
			t.Fatalf("block %d payload: %v", i, err)
		}
		if _, err := cs.Commit(i, p); err != nil {
			t.Fatal(err)
		}
	}

	fixed := make([][]byte, blocks)
	for b := range fixed {
		p, err := CampaignBlockPayload(context.Background(), cfg, trials, b, rng.NewStream(seed, uint64(b)))
		if err != nil {
			t.Fatal(err)
		}
		fixed[b] = p
	}
	want, err := MergeCampaignPayloads(fixed)
	if err != nil {
		t.Fatal(err)
	}
	got := cs.Aggregate()
	if got != want {
		t.Errorf("streamed aggregate %+v differs from fixed grid %+v", got, want)
	}
	if cs.Trials() != trials {
		t.Errorf("Trials() = %d, want %d", cs.Trials(), trials)
	}
}

// TestCampaignStreamRestoreMidway: snapshotting the sink after k blocks
// and restoring into a fresh sink must reproduce the uninterrupted final
// state bit for bit — stop decisions included.
func TestCampaignStreamRestoreMidway(t *testing.T) {
	cfg := streamTestConfig()
	spec := stats.StopSpec{Rel: 0.001, MinN: 64, QuantTol: 0.05}
	const seed, blocks, cut = 11, 8, 3
	payloads := streamPayloads(t, cfg, seed, blocks)

	mk := func() *CampaignStream {
		cs, err := NewCampaignStream(cfg, spec, "util")
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	full := mk()
	var fullStops []bool
	for i, p := range payloads {
		stop, err := full.Commit(i, p)
		if err != nil {
			t.Fatal(err)
		}
		fullStops = append(fullStops, stop)
	}

	part := mk()
	var partStops []bool
	for i, p := range payloads {
		stop, err := part.Commit(i, p)
		if err != nil {
			t.Fatal(err)
		}
		partStops = append(partStops, stop)
		if i == cut {
			state, serr := part.State()
			if serr != nil {
				t.Fatal(serr)
			}
			part = mk()
			if rerr := part.Restore(state); rerr != nil {
				t.Fatal(rerr)
			}
			if part.Trials() != (cut+1)*StreamBlockTrials {
				t.Fatalf("restored Trials() = %d", part.Trials())
			}
		}
	}
	for i := range fullStops {
		if fullStops[i] != partStops[i] {
			t.Fatalf("stop decision %d diverged across restore", i)
		}
	}
	s1, _ := full.State()
	s2, _ := part.State()
	if !bytes.Equal(s1, s2) {
		t.Error("final sink state differs after mid-stream restore")
	}
	if full.Aggregate() != part.Aggregate() {
		t.Error("final aggregate differs after mid-stream restore")
	}
}

// TestCampaignStreamPayloadCodec: decode(encode(p)) re-encodes to the
// identical bytes, and corrupt payloads are rejected.
func TestCampaignStreamPayloadCodec(t *testing.T) {
	cfg := streamTestConfig()
	p := streamPayloads(t, cfg, 3, 1)[0]
	var dec campaignStreamPartial
	if err := decodeCampaignStreamPartial(p, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.sums.trials != StreamBlockTrials {
		t.Errorf("decoded trials %d, want %d", dec.sums.trials, StreamBlockTrials)
	}
	if got := encodeCampaignStreamPartial(&dec); !bytes.Equal(got, p) {
		t.Error("re-encode differs from the original payload")
	}
	if err := CheckCampaignStreamPayload(p[:campaignStreamFixedSize-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if err := CheckCampaignStreamPayload(append(append([]byte(nil), p...), 0)); err == nil {
		t.Error("payload with trailing garbage accepted")
	}
}

// TestNewCampaignStreamValidation: bad configs, bad stop rules and
// unknown targets are rejected up front; the empty target defaults.
func TestNewCampaignStreamValidation(t *testing.T) {
	good := streamTestConfig()
	if _, err := NewCampaignStream(CampaignConfig{}, stats.StopSpec{}, ""); err == nil {
		t.Error("invalid campaign config accepted")
	}
	if _, err := NewCampaignStream(good, stats.StopSpec{Rel: -1}, ""); err == nil {
		t.Error("invalid stop spec accepted")
	}
	_, err := NewCampaignStream(good, stats.StopSpec{}, "latency")
	if err == nil || !strings.Contains(err.Error(), `unknown stream target "latency"`) {
		t.Errorf("unknown target: err = %v", err)
	}
	cs, err := NewCampaignStream(good, stats.StopSpec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Target() != "util" {
		t.Errorf("default target = %q, want util", cs.Target())
	}
	for _, target := range StreamTargets {
		if _, err := NewCampaignStream(good, stats.StopSpec{}, target); err != nil {
			t.Errorf("target %q rejected: %v", target, err)
		}
	}
}

// TestCampaignStreamStopsViaEngine: the full stack — lazy source,
// bounded engine drain, ordered sink — honors the stopping rule at the
// same frontier for different worker counts.
func TestCampaignStreamStopsViaEngine(t *testing.T) {
	cfg := streamTestConfig()
	spec := stats.StopSpec{Rel: 0.05, MinN: 2 * int64(StreamBlockTrials)}
	var want []byte
	for _, workers := range []int{1, 4} {
		cs, err := NewCampaignStream(cfg, spec, "util")
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.RunStream(context.Background(), engine.StreamSpec{
			Source: cs.Source(), Sink: cs, Seed: 11, Workers: workers, MaxJobs: 64,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Stopped {
			t.Fatalf("workers=%d: rule never fired (committed %d)", workers, res.Committed)
		}
		state, _ := cs.State()
		if want == nil {
			want = state
		} else if !bytes.Equal(state, want) {
			t.Errorf("workers=%d: sink state differs from workers=1", workers)
		}
	}
}

func TestStreamBlocks(t *testing.T) {
	cases := []struct{ trials, want int }{
		{0, 0},
		{-5, 0},
		{1, 1},
		{StreamBlockTrials, 1},
		{StreamBlockTrials + 1, 2},
		{10 * StreamBlockTrials, 10},
	}
	for _, tc := range cases {
		if got := NumCampaignBlocks(tc.trials); got != tc.want {
			t.Errorf("NumCampaignBlocks(%d) = %d, want %d", tc.trials, got, tc.want)
		}
	}
}

func TestParseFaultSweep(t *testing.T) {
	mtbfs, err := ParseFaultSweep("25, 50,100")
	if err != nil {
		t.Fatal(err)
	}
	if len(mtbfs) != 3 || mtbfs[0] != 25 || mtbfs[1] != 50 || mtbfs[2] != 100 {
		t.Errorf("mtbfs = %v", mtbfs)
	}
	for _, bad := range []string{"", "abc", "25,,50", "25,-3", "0"} {
		if _, err := ParseFaultSweep(bad); err == nil {
			t.Errorf("ParseFaultSweep(%q) accepted", bad)
		}
	}
}

// TestFaultSweepConfigs: each row swaps only the crash model; every
// other fault knob of the base plan is preserved, and the base config is
// not aliased.
func TestFaultSweepConfigs(t *testing.T) {
	cfg := streamTestConfig()
	cfg.Reservation.Faults = &fault.Plan{Ckpt: fault.CkptBernoulli{P: 0.25}}

	mtbfs, cfgs, err := FaultSweepConfigs(cfg, "30,60")
	if err != nil {
		t.Fatal(err)
	}
	if len(mtbfs) != 2 || len(cfgs) != 2 {
		t.Fatalf("got %d mtbfs, %d configs", len(mtbfs), len(cfgs))
	}
	for i, c := range cfgs {
		p := c.Reservation.Faults
		if p == cfg.Reservation.Faults {
			t.Fatalf("row %d aliases the base plan", i)
		}
		crash, ok := p.Crash.(fault.ExpArrival)
		if !ok || crash.Rate != 1/mtbfs[i] {
			t.Errorf("row %d crash model %+v, want ExpArrival rate 1/%g", i, p.Crash, mtbfs[i])
		}
		if b, ok := p.Ckpt.(fault.CkptBernoulli); !ok || b.P != 0.25 {
			t.Errorf("row %d lost the base ckpt fault model: %+v", i, p.Ckpt)
		}
	}
	if cfg.Reservation.Faults.Crash != nil {
		t.Error("sweep mutated the base config's plan")
	}
	if _, _, err := FaultSweepConfigs(cfg, "30,zero"); err == nil {
		t.Error("bad sweep accepted")
	}
}

func TestFaultSweepJobName(t *testing.T) {
	mtbfs := []float64{30, 60}
	cases := []struct {
		i    int
		want string
	}{
		{0, "mtbf=30/block0"},
		{4, "mtbf=30/block4"},
		{5, "mtbf=60/block0"},
		{9, "mtbf=60/block4"},
	}
	for _, tc := range cases {
		if got := FaultSweepJobName(mtbfs, 5, tc.i); got != tc.want {
			t.Errorf("job %d = %q, want %q", tc.i, got, tc.want)
		}
	}
}

// TestSweepGridLayout pins the job layout simulate and distrun share:
// row-major over (row, block), stream = block, canonical names, each
// job's payload the campaign block of its row, and Row slicing one
// row's payloads out of the job-ordered list.
func TestSweepGridLayout(t *testing.T) {
	const trials, seed = 2*campaignBlockSize + 5, 9 // three blocks per row
	g, err := FaultSweepGrid(streamTestConfig(), "30,60", trials)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlocks != 3 || g.NumJobs() != 6 {
		t.Fatalf("grid is %d blocks, %d jobs; want 3, 6", g.NumBlocks, g.NumJobs())
	}
	jobs := g.Jobs()
	payloads := make([][]byte, len(jobs))
	for i, j := range jobs {
		ri, b := i/3, i%3
		if want := FaultSweepJobName(g.MTBFs, 3, i); j.Name != want || j.Stream != uint64(b) {
			t.Errorf("job %d is %q on stream %d, want %q on %d", i, j.Name, j.Stream, want, b)
		}
		jr, err := j.Run(context.Background(), rng.NewStream(seed, j.Stream))
		if err != nil {
			t.Fatal(err)
		}
		want, err := CampaignBlockPayload(context.Background(), g.Rows[ri], trials, b, rng.NewStream(seed, uint64(b)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jr.Payload, want) {
			t.Errorf("job %d payload differs from row %d block %d", i, ri, b)
		}
		if err := g.Check(i, jr.Payload); err != nil {
			t.Errorf("job %d payload rejected: %v", i, err)
		}
		payloads[i] = jr.Payload
	}
	if row := g.Row(payloads, 1); len(row) != 3 || !bytes.Equal(row[0], payloads[3]) {
		t.Error("Row(1) is not payloads[3:6]")
	}

	plain := CampaignGrid(streamTestConfig(), trials)
	if plain.NumJobs() != 3 || plain.JobName(2) != "block2" || plain.MTBFs != nil {
		t.Errorf("plain grid: %d jobs, job 2 named %q", plain.NumJobs(), plain.JobName(2))
	}
}
