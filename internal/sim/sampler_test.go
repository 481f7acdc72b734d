package sim

import (
	"math"
	"testing"

	"reskit/internal/core"
	"reskit/internal/dist"
	"reskit/internal/rng"
	"reskit/internal/strategy"
)

// exactSampler samples its truncated law by the exact quantile of one
// uniform, the map every truncated law used before inversion tables.
type exactSampler struct{ *dist.Truncated }

func (e exactSampler) Sample(r *rng.Source) float64 { return e.Quantile(r.Float64Open()) }

// TestTabledCampaignMatchesExactSampler is the paired common-random-number
// check of the Gamma inversion table: the canonical gamma campaign (the
// e2ebench campaign-gamma instance) runs 20 000 trials on the same
// uniforms twice, once drawing task durations through the table and once
// through the exact quantile. A u-error of at most 1e-12 must not flip a
// single checkpoint decision or reservation count, and may move the
// continuous aggregates only in their last digits.
func TestTabledCampaignMatchesExactSampler(t *testing.T) {
	task := dist.Truncate(dist.NewGamma(6, 0.5), 0, math.Inf(1))
	ckpt := paperCkpt(5, 0.4)
	st := strategy.NewDynamic(core.NewDynamic(29, task, ckpt))
	run := func(law dist.Continuous) CampaignAggregate {
		return MonteCarloCampaign(CampaignConfig{
			Reservation: Config{R: 29, Recovery: 1.5, Task: law, Ckpt: ckpt, Strategy: st},
			TotalWork:   500,
		}, 20000, 11, 0)
	}
	tabled, exact := run(task), run(exactSampler{task})
	if tabled.Reservations != exact.Reservations || tabled.CompletionRate != exact.CompletionRate ||
		tabled.Trials != exact.Trials || tabled.CompletedAll != exact.CompletedAll {
		t.Fatalf("discrete outcomes differ:\n tabled %+v\n  exact %+v", tabled, exact)
	}
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"Utilization", tabled.Utilization, exact.Utilization},
		{"LostWork", tabled.LostWork, exact.LostWork},
	} {
		if rel := math.Abs(m.got-m.want) / math.Abs(m.want); !(rel <= 1e-9) {
			t.Errorf("%s: tabled %.17g, exact %.17g (relative difference %.3g)", m.name, m.got, m.want, rel)
		}
	}
	t.Logf("reservations %.6g, utilization %.17g vs %.17g, lost work %.17g vs %.17g",
		tabled.Reservations, tabled.Utilization, exact.Utilization, tabled.LostWork, exact.LostWork)
}
