package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"reskit/internal/dist"
	"reskit/internal/lawspec"
	"reskit/internal/obs"
	"reskit/internal/quad"
	"reskit/internal/rng"
)

func TestDynamicNormalFig8(t *testing.T) {
	// Figure 8: mu=3, sigma=0.5, muC=5, sigmaC=0.4, R=29.
	// Paper: intersection W_int ~ 20.3.
	task := dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
	d := NewDynamic(29, task, paperCkpt(5, 0.4))
	w, err := d.Intersection()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-20.3) > 0.3 {
		t.Errorf("W_int = %g, paper ~20.3", w)
	}
	// Below the intersection: continue; above: checkpoint.
	if d.ShouldCheckpoint(w - 1) {
		t.Errorf("should continue below W_int")
	}
	if !d.ShouldCheckpoint(w + 1) {
		t.Errorf("should checkpoint above W_int")
	}
}

func TestDynamicGammaFig9(t *testing.T) {
	// Figure 9: k=1, theta=0.5, muC=2, sigmaC=0.4, R=10.
	// Paper: W_int ~ 6.4.
	d := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	w, err := d.Intersection()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-6.4) > 0.3 {
		t.Errorf("W_int = %g, paper ~6.4", w)
	}
}

func TestDynamicPoissonFig10(t *testing.T) {
	// Figure 10: lambda=3, muC=5, sigmaC=0.4, R=29.
	// Paper: W_int ~ 18.9.
	d := NewDynamicDiscrete(29, dist.NewPoisson(3), paperCkpt(5, 0.4))
	w, err := d.Intersection()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-18.9) > 0.4 {
		t.Errorf("W_int = %g, paper ~18.9", w)
	}
}

func TestDynamicExpectedWorkCheckpointFormula(t *testing.T) {
	// E(W_C) = W_n * [Phi((R-W_n-muC)/sigmaC) - Phi(-muC/sigmaC)] /
	//                 [1 - Phi(-muC/sigmaC)]  (Section 4.3).
	ckpt := paperCkpt(5, 0.4)
	d := NewDynamic(29, dist.NewGamma(1, 1), ckpt)
	for _, w := range []float64{1, 10, 20, 23.9, 28.9} {
		want := w * ckpt.CDF(29-w)
		if got := d.ExpectedWorkCheckpoint(w); math.Abs(got-want) > 1e-12 {
			t.Errorf("E(W_C)(%g) = %g want %g", w, got, want)
		}
	}
	if d.ExpectedWorkCheckpoint(0) != 0 || d.ExpectedWorkCheckpoint(-1) != 0 {
		t.Errorf("non-positive work must give 0")
	}
	// No time left for even the fastest checkpoint.
	if d.ExpectedWorkCheckpoint(29) != 0 {
		t.Errorf("E(W_C)(R) must be 0")
	}
}

func TestDynamicContinueVanishesAtR(t *testing.T) {
	d := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	if d.ExpectedWorkContinue(10) != 0 || d.ExpectedWorkContinue(11) != 0 {
		t.Errorf("no budget: E(W_+1) must be 0")
	}
	if v := d.ExpectedWorkContinue(0); v <= 0 {
		t.Errorf("E(W_+1)(0) = %g, want > 0", v)
	}
}

func TestDynamicDecisionMonotone(t *testing.T) {
	// Once checkpointing wins it keeps winning for larger W_n (scan).
	d := NewDynamic(29, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(5, 0.4))
	flipped := false
	for i := 0; i <= 200; i++ {
		w := 29 * float64(i) / 200
		c := d.ShouldCheckpoint(w)
		if flipped && !c && w < 23 {
			// Allow the far-right region where both expectations are ~0;
			// below R - muC the rule must stay monotone.
			t.Fatalf("decision flipped back at w=%g", w)
		}
		if c && w > 1 {
			flipped = true
		}
	}
	if !flipped {
		t.Fatalf("never decided to checkpoint")
	}
}

func TestDynamicNoIntersection(t *testing.T) {
	// A reservation so short that no task ever fits: with W_n near 0 the
	// checkpoint expectation always dominates, so no sign change from
	// negative to positive exists.
	d := NewDynamic(1.0, dist.Truncate(dist.NewNormal(5, 0.5), 0, math.Inf(1)),
		paperCkpt(0.2, 0.05))
	_, err := d.Intersection()
	if !errors.Is(err, ErrNoIntersection) {
		t.Errorf("want ErrNoIntersection, got %v", err)
	}
}

func TestDynamicCurves(t *testing.T) {
	d := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	ws, ck, cont := d.Curves(50)
	if len(ws) != 51 || len(ck) != 51 || len(cont) != 51 {
		t.Fatalf("curve sizes")
	}
	if ws[0] != 0 || ws[50] != 10 {
		t.Errorf("w range [%g, %g]", ws[0], ws[50])
	}
	// The two curves cross near the analytical intersection.
	wInt, err := d.Intersection()
	if err != nil {
		t.Fatal(err)
	}
	var crossed float64 = -1
	for i := 1; i < len(ws); i++ {
		if ck[i-1] < cont[i-1] && ck[i] >= cont[i] {
			crossed = ws[i]
			break
		}
	}
	if crossed < 0 || math.Abs(crossed-wInt) > 0.5 {
		t.Errorf("curve crossing %g vs Intersection %g", crossed, wInt)
	}
}

func TestDynamicConstructorValidation(t *testing.T) {
	ckpt := paperCkpt(5, 0.4)
	cases := []func(){
		func() { NewDynamic(-1, dist.NewGamma(1, 1), ckpt) },
		func() { NewDynamic(10, nil, ckpt) },
		func() { NewDynamic(10, dist.NewGamma(1, 1), nil) },
		func() { NewDynamic(10, dist.NewNormal(3, 0.5), ckpt) }, // task support < 0
		func() { NewDynamicDiscrete(10, nil, ckpt) },
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

// TestDynamicRefusesPointMassTask: the rule integrates the task density,
// so TryNewDynamic refuses a task law whose support is one point; a
// point-mass checkpoint law, read only through its CDF, stays allowed.
func TestDynamicRefusesPointMassTask(t *testing.T) {
	_, err := TryNewDynamic(10, dist.NewDeterministic(1), dist.NewDeterministic(0))
	if !errors.Is(err, ErrPointMassTask) {
		t.Errorf("TryNewDynamic(10, det:1, det:0) err = %v, want ErrPointMassTask", err)
	}
	if _, err := TryNewDynamic(10, dist.NewGamma(1, 1), dist.NewDeterministic(0)); err != nil {
		t.Errorf("point-mass checkpoint law refused: %v", err)
	}
}

// v11Dynamic is the V11 instance (R = 100, the failure-regime
// benchmark), where work reaches ~95 and a coefficient error is
// multiplied by it in work*A - B.
func v11Dynamic() *Dynamic {
	return NewDynamic(100, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(2, 0.3))
}

func TestCoefficientTableMatchesExactRule(t *testing.T) {
	// The table decision must equal the exact expectation comparison at
	// every probe where the two options differ by more than the
	// quadrature can resolve: the certified bound sends every closer
	// state to the exact integrals or, below the noise floor, to the
	// >= tie. The V11 probes sit where linear interpolation, with its
	// fixed 1e-3 band, checkpointed against the rule (work 93.408 at
	// elapsed 93.908: E(W_C) = 93.408 < E(W_+1) = 93.433).
	type probe struct{ work, elapsed float64 }
	cases := []struct {
		d      *Dynamic
		probes []probe
	}{
		{d: NewDynamic(29, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(5, 0.4))},
		{d: NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))},
		{d: NewDynamicDiscrete(29, dist.NewPoisson(3), paperCkpt(5, 0.4))},
		{d: v11Dynamic(), probes: []probe{{93.408, 93.908}}},
	}
	for work := 92.9; work <= 93.9; work += 0.005 {
		for _, gap := range []float64{0.25, 0.5, 0.75} {
			cases[3].probes = append(cases[3].probes, probe{work, work + gap})
		}
	}
	for _, c := range cases {
		d := c.d
		for i := 1; i < 40; i++ {
			elapsed := d.R * float64(i) / 41
			for j := 1; j < 20; j++ {
				c.probes = append(c.probes, probe{elapsed * float64(j) / 20, elapsed})
			}
		}
		// Both sides of the indifference line work*A = B, close enough
		// that an interpolation error outside the bound flips a sign.
		for i := 1; i < 400; i++ {
			budget := d.R * float64(i) / 400
			a, b := d.exactCoefficients(budget)
			for _, rel := range []float64{-1e-4, -1e-5, 1e-5, 1e-4} {
				if work := b / a * (1 + rel); a > 0 && work > 0 && work <= d.R-budget {
					c.probes = append(c.probes, probe{work, d.R - budget})
				}
			}
		}
		for _, p := range c.probes {
			budget := d.R - p.elapsed
			ecExact := p.work * d.ckptProb(budget)
			e1Exact := d.expectedContinue(p.work, budget)
			exact := ecExact >= e1Exact
			fast := d.ShouldCheckpointAt(p.work, p.elapsed)
			if fast != exact && math.Abs(ecExact-e1Exact) > 1e-9*(1+e1Exact) {
				t.Errorf("R=%g: table %v, exact %v at work=%.3f elapsed=%.3f (EC=%.6f E1=%.6f)",
					d.R, fast, exact, p.work, p.elapsed, ecExact, e1Exact)
			}
		}
	}
}

func parseLaw(t *testing.T, spec string) dist.Continuous {
	t.Helper()
	l, err := lawspec.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// certifiedInstances are the dynamic problems whose certified cells are
// checked against the exact coefficients: the paper's Figures 8–10, the
// e2ebench campaign laws, V11, a truncation with kinks in the task
// density, and the cmd/advise test key, whose uniform checkpoint law
// puts kinks in A itself, once more with the kink next to the grid's
// end.
func certifiedInstances(t *testing.T) []struct {
	name string
	d    *Dynamic
} {
	law := func(spec string) dist.Continuous { return parseLaw(t, spec) }
	return []struct {
		name string
		d    *Dynamic
	}{
		{"fig8", NewDynamic(29, law("norm:3,0.5@[0,inf]"), paperCkpt(5, 0.4))},
		{"fig9", NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))},
		{"fig10-poisson", NewDynamicDiscrete(29, dist.NewPoisson(3), paperCkpt(5, 0.4))},
		{"campaign-gamma", NewDynamic(29, law("gamma:6,0.5@[0,inf]"), law("norm:5,0.4@[0,inf]"))},
		{"v11", v11Dynamic()},
		{"gamma-trunc", NewDynamic(29, law("gamma:2,1@[0.5,8]"), paperCkpt(5, 0.4))},
		{"advise-key", NewDynamic(10, law("exp:0.3"), law("uniform:0.3,0.7"))},
		// The kink of P(C <= b) at b = 0.001 lies in the first cell,
		// whose stencils are one-sided.
		{"edge-kink", NewDynamic(10, law("exp:0.3"), law("uniform:0.001,0.5"))},
	}
}

func TestCertifiedBoundsHoldAtProbes(t *testing.T) {
	// The interpolants must sit within their cells' bounds of the exact
	// coefficients at both quarter points and the midpoint of every
	// cell, where the cubic's error peaks.
	for _, in := range certifiedInstances(t) {
		d := in.d
		t.Run(in.name, func(t *testing.T) {
			if err := d.Prebuild(context.Background()); err != nil {
				t.Fatal(err)
			}
			worst := make([]float64, GridSize) // largest error/bound per cell
			parallelFor(0, GridSize-1, func(j int) {
				c := &d.cells[j]
				for _, tq := range []float64{0.25, 0.5, 0.75} {
					a, b := d.exactCoefficients(d.R * (float64(j) + tq) / GridSize)
					ia, ib := c.at(tq)
					worst[j] = math.Max(worst[j], math.Max(math.Abs(ia-a)/c.ea, math.Abs(ib-b)/c.eb))
				}
			})
			var largest float64
			for j, w := range worst {
				if !(w <= 1) {
					t.Errorf("cell %d: error is %.3g of its bound (eA %.3g, eB %.3g)", j, w, d.cells[j].ea, d.cells[j].eb)
				}
				largest = math.Max(largest, w)
			}
			t.Logf("largest error/bound %.3f", largest)
		})
	}
}

func TestExactBandScalesWithWork(t *testing.T) {
	// The band left to the exact integrals is work*eA + eB, because an
	// error in A reaches the decision multiplied by the work. On V11,
	// where work reaches ~95, a state at half that band from the line,
	// outside a band blind to the work factor (eA + eB, or the old
	// 1e-3*(1+B)), must still re-run the integrals.
	d := v11Dynamic()
	if err := d.Prebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	exact := new(obs.Counter)
	ObserveDecisions(exact, nil)
	defer ObserveDecisions(nil, nil)
	probes := 0
	for elapsed := 85.0; elapsed < 97; elapsed += 0.05 {
		j, tq := d.cellAt(d.R - elapsed)
		c := &d.cells[j]
		a, b := c.at(tq)
		// work*a - b = (work*eA + eB)/2
		work := (b + c.eb/2) / (a - c.ea/2)
		if !(work > 0 && work <= elapsed && (work*c.ea+c.eb)/2 > c.ea+c.eb) {
			continue
		}
		before := exact.Value()
		d.ShouldCheckpointAt(work, elapsed)
		if exact.Value() != before+1 {
			t.Errorf("work %g elapsed %g, half the band from the line: decided from the table", work, elapsed)
		}
		probes++
	}
	if probes < 10 {
		t.Fatalf("only %d probes", probes)
	}
}

func TestDecisionGuardAgreesWithTable(t *testing.T) {
	// A state the guard settles must be one the table settles with the
	// same sign, |work*a - b| > work*eA + eB, and ShouldCheckpointAt must
	// equal decideInCell, the unguarded path, on every state. The states:
	// 200 000 random ones with work <= elapsed < R, and in every cell the
	// guard's edges lo and hi and the doubles next to them at three
	// points of the cell, plus works at the ends of the float range.
	for _, in := range certifiedInstances(t) {
		d := in.d
		t.Run(in.name, func(t *testing.T) {
			if err := d.Prebuild(context.Background()); err != nil {
				t.Fatal(err)
			}
			var states, settled int
			check := func(work, elapsed float64) {
				states++
				budget := d.R - elapsed
				j, tq := d.cellAt(budget)
				c, g := &d.cells[j], d.guards[j]
				a, b := c.at(tq)
				diff, tol := work*a-b, work*c.ea+c.eb
				switch {
				case work < g.lo:
					settled++
					if !(diff < -tol) {
						t.Errorf("cell %d work %v elapsed %v: guard continues below lo %v, table diff %g band %g",
							j, work, elapsed, g.lo, diff, tol)
					}
				case work > g.hi && work <= math.MaxFloat64:
					settled++
					if !(diff > tol) {
						t.Errorf("cell %d work %v elapsed %v: guard checkpoints above hi %v, table diff %g band %g",
							j, work, elapsed, g.hi, diff, tol)
					}
				}
				if got, want := d.ShouldCheckpointAt(work, elapsed), d.decideInCell(c, tq, work, budget); got != want {
					t.Errorf("cell %d work %v elapsed %v: decision %v, unguarded %v", j, work, elapsed, got, want)
				}
			}
			src := rng.New(20)
			for i := 0; i < 200000; i++ {
				elapsed := d.R * src.Float64()
				if work := elapsed * (1 - src.Float64()); work > 0 {
					check(work, elapsed)
				}
			}
			random := settled
			for j := 0; j < GridSize; j++ {
				for _, tq := range []float64{0, 0.5, math.Nextafter(1, 0)} {
					elapsed := d.R - (float64(j)+tq)/d.cellsPerUnit
					for _, edge := range []float64{d.guards[j].lo, d.guards[j].hi} {
						if edge > 0 && !math.IsInf(edge, 0) {
							check(math.Nextafter(edge, 0), elapsed)
							check(edge, elapsed)
							check(math.Nextafter(edge, math.Inf(1)), elapsed)
						}
					}
				}
			}
			for _, work := range []float64{math.SmallestNonzeroFloat64, 1e-300, 1e300, math.MaxFloat64, math.Inf(1)} {
				check(work, d.R/2)
			}
			t.Logf("guard settled %d of 200000 random states, %d of %d in all", random, settled, states)
		})
	}
}

func TestDynamicIntegralsSplitAtKinks(t *testing.T) {
	// Across a jump of the task density or a kink of the checkpoint CDF
	// the adaptive error estimate can miss: over [0, budget] in one
	// piece, Gamma(2,1)|[0.5,8] at budget 18.8188 gave A = -3.6e-5 and
	// sum P > 1. Integrated between the kinks, the coefficients must
	// match a scalar reference split the same way and held to 100x
	// tighter tolerances.
	law := func(spec string) dist.Continuous { return parseLaw(t, spec) }
	cases := []*Dynamic{
		NewDynamic(29, law("gamma:2,1@[0.5,8]"), paperCkpt(5, 0.4)),
		NewDynamic(10, law("exp:0.3"), law("uniform:0.3,0.7")),
		NewDynamic(60, law("exp:0.05"), law("uniform:1,3")),
	}
	for _, d := range cases {
		taskLo, taskHi := d.Task.Support()
		ckptLo, ckptHi := d.Ckpt.Support()
		for k := 1; k <= 400; k++ {
			budget := d.R * (float64(k) - 0.5) / 400
			cuts := []float64{0, budget}
			for _, x := range []float64{taskLo, taskHi, budget - ckptLo, budget - ckptHi} {
				if x > 0 && x < budget {
					cuts = append(cuts, x)
				}
			}
			sort.Float64s(cuts)
			var sumP, sumXP float64
			for i := 0; i+1 < len(cuts); i++ {
				sumP += quad.Kronrod(func(x float64) float64 {
					return d.ckptProb(budget-x) * d.Task.PDF(x)
				}, cuts[i], cuts[i+1], 1e-14, 1e-12).Value
				sumXP += quad.Kronrod(func(x float64) float64 {
					return x * d.ckptProb(budget-x) * d.Task.PDF(x)
				}, cuts[i], cuts[i+1], 1e-14, 1e-12).Value
			}
			a, b := d.exactCoefficients(budget)
			if wantA := d.ckptProb(budget) - sumP; math.Abs(a-wantA) > 1e-10 || math.Abs(b-sumXP) > 1e-10*(1+sumXP) {
				t.Errorf("R=%g budget %g: A %.15g B %.15g, reference %.15g %.15g", d.R, budget, a, b, wantA, sumXP)
			}
		}
	}
}

func TestExpectedContinueBatchedMatchesScalarQuadrature(t *testing.T) {
	// The batched kernel must reproduce the scalar integrand it replaced:
	// integrate (x+work)*P(C<=budget-x)*f_X(x) with the plain scalar
	// Kronrod path and compare.
	cases := []*Dynamic{
		NewDynamic(29, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(5, 0.4)),
		NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4)),
		NewDynamic(12, dist.NewLogNormal(0.5, 0.4), dist.NewExponential(1.5)),
	}
	for _, d := range cases {
		for _, work := range []float64{0, 2, 7} {
			for _, budget := range []float64{0.5, 3, d.R / 2, d.R} {
				scalar := quad.Kronrod(func(x float64) float64 {
					return (x + work) * d.ckptProb(budget-x) * d.Task.PDF(x)
				}, 0, budget, 1e-12, 1e-10).Value
				got := d.expectedContinue(work, budget)
				if math.Abs(got-scalar) > 1e-12*(1+math.Abs(scalar)) {
					t.Errorf("R=%g work=%g budget=%g: batched %g vs scalar %g",
						d.R, work, budget, got, scalar)
				}
			}
		}
	}
}

func TestBuildTableParallelDeterministic(t *testing.T) {
	// Two independently built coefficient tables must be bit-identical:
	// parallel construction writes each grid index exactly once.
	mk := func() *Dynamic {
		return NewDynamic(29, dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1)), paperCkpt(5, 0.4))
	}
	d1, d2 := mk(), mk()
	if err := d1.Prebuild(context.Background()); err != nil {
		t.Fatalf("Prebuild d1: %v", err)
	}
	if err := d2.Prebuild(context.Background()); err != nil {
		t.Fatalf("Prebuild d2: %v", err)
	}
	if len(d1.tableA) != len(d2.tableA) {
		t.Fatalf("table sizes differ")
	}
	for i := range d1.tableA {
		if d1.tableA[i] != d2.tableA[i] || d1.tableB[i] != d2.tableB[i] {
			t.Fatalf("tables differ at %d: A %g vs %g, B %g vs %g",
				i, d1.tableA[i], d2.tableA[i], d1.tableB[i], d2.tableB[i])
		}
	}
}

func TestCurvesParallelDeterministic(t *testing.T) {
	d := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	ws1, ck1, ct1 := d.Curves(64)
	ws2, ck2, ct2 := d.Curves(64)
	for i := range ws1 {
		if ws1[i] != ws2[i] || ck1[i] != ck2[i] || ct1[i] != ct2[i] {
			t.Fatalf("Curves not deterministic at %d", i)
		}
	}
}

func TestCoefficientsLinearity(t *testing.T) {
	// E(W_C)-E(W_+1) must equal work*A - B for the exact coefficients.
	d := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	for _, budget := range []float64{2, 5, 8} {
		a, b := d.exactCoefficients(budget)
		if a < -1e-12 || b < -1e-12 {
			t.Errorf("budget %g: negative coefficients A=%g B=%g", budget, a, b)
		}
		for _, work := range []float64{0.5, 3, 7} {
			lhs := work*d.ckptProb(budget) - d.expectedContinue(work, budget)
			rhs := work*a - b
			if math.Abs(lhs-rhs) > 1e-8*(1+math.Abs(lhs)) {
				t.Errorf("budget %g work %g: %g vs %g", budget, work, lhs, rhs)
			}
		}
	}
}

func TestTableExtractInstallBitIdentical(t *testing.T) {
	// A Dynamic with an installed table must decide exactly like the
	// Dynamic the table was extracted from — this is the contract the
	// advisor service's content-addressed artifacts rely on.
	task := dist.Truncate(dist.NewNormal(3, 0.5), 0, math.Inf(1))
	built := NewDynamic(29, task, paperCkpt(5, 0.4))
	tbl, err := built.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.A) != GridSize+1 || len(tbl.B) != GridSize+1 {
		t.Fatalf("table size %dx%d, want %d", len(tbl.A), len(tbl.B), GridSize+1)
	}

	warm := NewDynamic(29, task, paperCkpt(5, 0.4))
	if err := warm.InstallTable(tbl); err != nil {
		t.Fatal(err)
	}
	for i := range warm.tableA {
		if warm.tableA[i] != built.tableA[i] || warm.tableB[i] != built.tableB[i] {
			t.Fatalf("installed table differs at %d", i)
		}
	}
	// The certified cells are derived from the samples alone, so an
	// installed table carries the very cells and bounds of the build.
	if warm.cellsPerUnit != built.cellsPerUnit {
		t.Fatalf("cell scale %g, built %g", warm.cellsPerUnit, built.cellsPerUnit)
	}
	for j := range built.cells {
		if warm.cells[j] != built.cells[j] {
			t.Fatalf("installed cell %d differs: %+v vs %+v", j, warm.cells[j], built.cells[j])
		}
	}
	for work := 0.0; work <= 29; work += 0.37 {
		for elapsed := work; elapsed <= 29; elapsed += 2.9 {
			if got, want := warm.ShouldCheckpointAt(work, elapsed), built.ShouldCheckpointAt(work, elapsed); got != want {
				t.Fatalf("decision at work=%g elapsed=%g: installed %v, built %v", work, elapsed, got, want)
			}
		}
	}
}

func TestTableCopiesAreIsolated(t *testing.T) {
	d := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	tbl, err := d.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a0 := d.tableA[7]
	tbl.A[7] = math.Inf(1) // mutating the extract must not leak in
	if d.tableA[7] != a0 {
		t.Fatal("Table returned an aliased slice")
	}
	d2 := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	tbl.A[7] = a0
	if err := d2.InstallTable(tbl); err != nil {
		t.Fatal(err)
	}
	tbl.B[3] = math.NaN() // mutating after install must not leak in
	if math.IsNaN(d2.tableB[3]) {
		t.Fatal("InstallTable aliased the caller's slice")
	}
}

func TestInstallTableRejectsMismatch(t *testing.T) {
	d := NewDynamic(10, dist.NewGamma(1, 0.5), paperCkpt(2, 0.4))
	if err := d.InstallTable(CoeffTable{R: 11, A: make([]float64, GridSize+1), B: make([]float64, GridSize+1)}); err == nil {
		t.Error("wrong R accepted")
	}
	if err := d.InstallTable(CoeffTable{R: 10, A: make([]float64, 3), B: make([]float64, 3)}); err == nil {
		t.Error("truncated grid accepted")
	}
}
