package core

import (
	"errors"
	"math"
	"testing"

	"reskit/internal/dist"
)

func TestHeterogeneousCollapsesToIIDRule(t *testing.T) {
	// With identical laws on every task, the general rule must agree
	// with the Section 4.3 rule at every state (away from ties).
	task := dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
	ckpt := paperCkpt(5, 0.4)
	d := NewDynamic(29, task, ckpt)
	h := Homogeneous(29, 50, task, ckpt)

	for _, w := range []float64{3, 9, 15, 18, 20, 21, 24, 27} {
		iid := d.ShouldCheckpointAt(w, w)
		gen, err := h.ShouldCheckpoint(4, w, w) // mid-chain, next task exists
		if err != nil {
			t.Fatal(err)
		}
		if iid != gen {
			ec := h.ExpectedWorkCheckpoint(4, w, w)
			e1 := h.ExpectedWorkContinue(4, w, w)
			if math.Abs(ec-e1) > 1e-6 {
				t.Errorf("w=%g: IID rule %v, general rule %v (EC=%g, E1=%g)", w, iid, gen, ec, e1)
			}
		}
	}
}

func TestHeterogeneousExpectationsMatchDynamic(t *testing.T) {
	task := dist.NewGamma(1, 0.5)
	ckpt := paperCkpt(2, 0.4)
	d := NewDynamic(10, task, ckpt)
	h := Homogeneous(10, 30, task, ckpt)
	for _, w := range []float64{0.5, 2, 5, 8} {
		ec := h.ExpectedWorkCheckpoint(3, w, w)
		if math.Abs(ec-d.ExpectedWorkCheckpoint(w)) > 1e-12 {
			t.Errorf("EC mismatch at w=%g: %g vs %g", w, ec, d.ExpectedWorkCheckpoint(w))
		}
		e1 := h.ExpectedWorkContinue(3, w, w)
		if math.Abs(e1-d.ExpectedWorkContinue(w)) > 1e-9 {
			t.Errorf("E+1 mismatch at w=%g: %g vs %g", w, e1, d.ExpectedWorkContinue(w))
		}
	}
}

func TestHeterogeneousContinueMatchesDynamicAcrossKinks(t *testing.T) {
	// E(W_+1) of a homogeneous chain must be the Section 4.3 integral,
	// which runs between the jumps of a truncated task density and the
	// kinks of a bounded checkpoint law. Over [0, budget] in one piece
	// the gamma:2,1@[0.5,8] chain was off by 0.0126 at budget 9.96.
	law := func(spec string) dist.Continuous { return parseLaw(t, spec) }
	cases := []struct {
		r          float64
		task, ckpt dist.Continuous
	}{
		{29, law("gamma:2,1@[0.5,8]"), law("norm:5,0.4@[0,inf]")},
		{10, law("exp:0.3"), law("uniform:0.3,0.7")},
		{29, law("norm:3,0.5@[0,inf]"), law("norm:5,0.4@[0,inf]")},
	}
	for _, c := range cases {
		d := NewDynamic(c.r, c.task, c.ckpt)
		h := Homogeneous(c.r, 20, c.task, c.ckpt)
		for k := 0; k < 2000; k++ {
			w := c.r * (float64(k) + 0.5) / 2000
			want := d.ExpectedWorkContinue(w)
			if got := h.ExpectedWorkContinue(3, w, w); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("R=%g %v/%v work=elapsed=%g: heterogeneous %.12g, dynamic %.12g",
					c.r, c.task, c.ckpt, w, got, want)
			}
		}
	}
}

func TestHeterogeneousLastTaskAlwaysCheckpoints(t *testing.T) {
	task := dist.NewGamma(1, 0.5)
	ckpt := paperCkpt(2, 0.4)
	h := Homogeneous(10, 3, task, ckpt)
	ok, err := h.ShouldCheckpoint(2, 1.5, 1.5)
	if err != nil || !ok {
		t.Errorf("last task must checkpoint: %v %v", ok, err)
	}
	_, err = h.ShouldCheckpoint(3, 1, 1)
	if !errors.Is(err, ErrChainExhausted) {
		t.Errorf("want ErrChainExhausted, got %v", err)
	}
}

func TestHeterogeneousStageAwareDecision(t *testing.T) {
	// A pipeline whose NEXT task is enormous should checkpoint earlier
	// than one whose next task is small, all else equal.
	ckpt := paperCkpt(2, 0.3)
	small := dist.Truncate(dist.NewNormal(1, 0.2), 0, math.Inf(1))
	big := dist.Truncate(dist.NewNormal(12, 1), 0, math.Inf(1))

	mkChain := func(next dist.Continuous) *Heterogeneous {
		return NewHeterogeneous(20, []TaskSpec{
			{Duration: small, Ckpt: ckpt},
			{Duration: next, Ckpt: ckpt},
			{Duration: small, Ckpt: ckpt},
		})
	}
	w, elapsed := 14.0, 14.0
	ckSmall, err := mkChain(small).ShouldCheckpoint(0, w, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	ckBig, err := mkChain(big).ShouldCheckpoint(0, w, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if ckSmall {
		t.Errorf("with a small next task and 6 units left, continuing should win")
	}
	if !ckBig {
		t.Errorf("with a 12-unit next task and 6 units left, checkpointing should win")
	}
}

func TestHeterogeneousPerStageCheckpointLaws(t *testing.T) {
	// A stage with a huge checkpoint footprint (slow checkpoint) makes
	// checkpointing there unattractive relative to one more task that
	// leads to a cheap-checkpoint stage.
	taskLaw := dist.Truncate(dist.NewNormal(2, 0.3), 0, math.Inf(1))
	slowCkpt := paperCkpt(7, 0.5)
	fastCkpt := paperCkpt(0.5, 0.1)
	h := NewHeterogeneous(20, []TaskSpec{
		{Duration: taskLaw, Ckpt: slowCkpt},
		{Duration: taskLaw, Ckpt: fastCkpt},
		{Duration: taskLaw, Ckpt: fastCkpt},
	})
	// At the end of task 0 with 13 elapsed: checkpointing now needs ~7
	// units (tight), while one more ~2-unit task leads to a 0.5-unit
	// checkpoint.
	ok, err := h.ShouldCheckpoint(0, 13, 13)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("should prefer continuing toward the cheap checkpoint")
	}
}

func TestStaticHeteroHeuristicUniformChain(t *testing.T) {
	// On an IID chain the heuristic must agree with the exact static
	// solver's n_opt (Fig 5 instance, Normal tasks).
	task := dist.NewNormal(3, 0.5)
	ckpt := paperCkpt(5, 0.4)
	exact := NewStatic(30, task, ckpt).Optimize()
	h := Homogeneous(30, 15, dist.Truncate(task, 0, math.Inf(1)), ckpt)
	n, v := StaticHeteroHeuristic(h)
	if n != exact.NOpt {
		t.Errorf("heuristic n=%d, exact n_opt=%d", n, exact.NOpt)
	}
	if math.Abs(v-exact.ENOpt) > 0.2 {
		t.Errorf("heuristic value %g vs exact %g", v, exact.ENOpt)
	}
}

func TestStaticHeteroHeuristicRampChain(t *testing.T) {
	// Growing task durations: the heuristic should stop before the sum
	// outruns the reservation.
	ckpt := paperCkpt(1, 0.1)
	var specs []TaskSpec
	for i := 0; i < 10; i++ {
		mu := 1.0 + float64(i) // tasks get longer and longer
		specs = append(specs, TaskSpec{
			Duration: dist.Truncate(dist.NewNormal(mu, 0.1), 0, math.Inf(1)),
			Ckpt:     ckpt,
		})
	}
	h := NewHeterogeneous(16, specs)
	n, v := StaticHeteroHeuristic(h)
	// Cumulative means: 1, 3, 6, 10, 15, 21... with ~1 unit checkpoint,
	// n = 4 (sum 10) leaves 6 for the checkpoint; n = 5 (sum 15) leaves
	// only 1 ~ muC, risky. The heuristic should pick 4 or 5.
	if n < 4 || n > 5 {
		t.Errorf("heuristic picked n=%d (value %g)", n, v)
	}
	if v <= 0 {
		t.Errorf("value %g", v)
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	task := dist.NewGamma(1, 1)
	ckpt := paperCkpt(1, 0.1)
	cases := []func(){
		func() { NewHeterogeneous(-1, []TaskSpec{{task, ckpt}}) },
		func() { NewHeterogeneous(10, nil) },
		func() { NewHeterogeneous(10, []TaskSpec{{nil, ckpt}}) },
		func() { NewHeterogeneous(10, []TaskSpec{{task, nil}}) },
		func() { NewHeterogeneous(10, []TaskSpec{{dist.NewNormal(0, 1), ckpt}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
