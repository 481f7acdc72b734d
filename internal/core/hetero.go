package core

import (
	"errors"
	"math"

	"reskit/internal/dist"
	"reskit/internal/quad"
)

// ErrChainExhausted is returned when a decision is requested past the end
// of a finite heterogeneous chain.
var ErrChainExhausted = errors.New("core: no tasks left in the heterogeneous chain")

// TaskSpec describes one task of the general instance of Section 4.1: a
// task-duration law D_X^(i) and the checkpoint-duration law D_C^(i) that
// applies to a checkpoint taken at this task's end.
type TaskSpec struct {
	Duration dist.Continuous // D_X^(i), support within [0, inf)
	Ckpt     dist.Continuous // D_C^(i), support within [0, inf)
}

// Heterogeneous is the general instance the paper's conclusion sketches:
// a finite chain T_1 -> T_2 -> ... -> T_m where every task has its own
// independent duration and checkpoint laws. The dynamic rule of Section
// 4.3 carries over unchanged — the only requirement is independence —
// by comparing, at the end of task i,
//
//	E(W_C)  = W * P(C_i <= R - elapsed)
//	E(W_+1) = Integral_0^{R-elapsed} (x + W) P(C_{i+1} <= R - elapsed - x) f_{X_{i+1}}(x) dx
//
// (at the end of the chain only the checkpoint branch remains).
type Heterogeneous struct {
	R     float64
	Tasks []TaskSpec
}

// NewHeterogeneous builds the general instance. Every task needs both
// laws, with nonnegative supports.
func NewHeterogeneous(r float64, tasks []TaskSpec) *Heterogeneous {
	h, err := TryNewHeterogeneous(r, tasks)
	if err != nil {
		panic(err.Error())
	}
	return h
}

// Len returns the number of tasks in the chain.
func (h *Heterogeneous) Len() int { return len(h.Tasks) }

// ckptProbAt returns P(C_i <= w) for the checkpoint after task i
// (0-based), zero for w <= 0.
func (h *Heterogeneous) ckptProbAt(i int, w float64) float64 {
	if w <= 0 {
		return 0
	}
	return h.Tasks[i].Ckpt.CDF(w)
}

// ExpectedWorkCheckpoint returns E(W_C) when checkpointing right after
// task i (0-based) with accumulated work `work` and elapsed time
// `elapsed`.
func (h *Heterogeneous) ExpectedWorkCheckpoint(i int, work, elapsed float64) float64 {
	if i < 0 || i >= len(h.Tasks) || work <= 0 {
		return 0
	}
	return work * h.ckptProbAt(i, h.R-elapsed)
}

// ExpectedWorkContinue returns E(W_+1) when running task i+1 before
// checkpointing at its end, from the state right after task i.
// It returns 0 when no task i+1 exists.
func (h *Heterogeneous) ExpectedWorkContinue(i int, work, elapsed float64) float64 {
	next := i + 1
	if next >= len(h.Tasks) {
		return 0
	}
	budget := h.R - elapsed
	if budget <= 0 {
		return 0
	}
	spec := h.Tasks[next]
	integrand := func(xs, out []float64) {
		for i, x := range xs {
			out[i] = (x + work) * h.ckptProbAt(next, budget-x) * spec.Duration.PDF(x)
		}
	}
	return integrateBetweenKinks(integrand, budget, spec.Duration, spec.Ckpt)
}

// ShouldCheckpoint applies the dynamic rule at the end of task i
// (0-based): checkpoint iff E(W_C) >= E(W_+1). It returns
// ErrChainExhausted past the end of the chain; at the last task it
// always answers true (there is nothing left to run).
func (h *Heterogeneous) ShouldCheckpoint(i int, work, elapsed float64) (bool, error) {
	if i < 0 || i >= len(h.Tasks) {
		return false, ErrChainExhausted
	}
	if i == len(h.Tasks)-1 {
		return true, nil
	}
	ec := h.ExpectedWorkCheckpoint(i, work, elapsed)
	return ec >= h.ExpectedWorkContinue(i, work, elapsed), nil
}

// Homogeneous converts an IID instance into the heterogeneous form with
// m identical tasks — useful for testing that the general rule collapses
// to the Section 4.3 rule.
func Homogeneous(r float64, m int, task, ckpt dist.Continuous) *Heterogeneous {
	specs := make([]TaskSpec, m)
	for i := range specs {
		specs[i] = TaskSpec{Duration: task, Ckpt: ckpt}
	}
	return NewHeterogeneous(r, specs)
}

// StaticHeteroHeuristic approximates the static problem for the general
// instance — which the paper's conclusion says is out of reach exactly —
// with a moment-matching heuristic: the partial sum S_n of independent
// (but not identically distributed) task durations is approximated by a
// Normal law with the summed means and variances (Lyapunov CLT), and
// Equation (3) is evaluated under that approximation for every feasible
// n. It returns the n (1-based count of tasks to run before the first
// checkpoint) maximizing the approximate expected saved work, along with
// that value.
func StaticHeteroHeuristic(h *Heterogeneous) (nOpt int, expWork float64) {
	var mean, varSum float64
	best, bestN := 0.0, 1
	for n := 1; n <= len(h.Tasks); n++ {
		spec := h.Tasks[n-1]
		mean += spec.Duration.Mean()
		varSum += spec.Duration.Variance()
		v := staticHeteroValue(h, n, mean, varSum)
		if v > best {
			best, bestN = v, n
		}
	}
	return bestN, best
}

// staticHeteroValue evaluates the Equation (3) analogue for checkpoint
// law D_C^(n) under the Normal approximation of S_n.
func staticHeteroValue(h *Heterogeneous, n int, mean, varSum float64) float64 {
	sd := math.Sqrt(varSum)
	ck := func(w float64) float64 { return h.ckptProbAt(n-1, w) }
	if sd == 0 {
		// Deterministic partial sum.
		return mean * ck(h.R-mean)
	}
	sn := dist.NewNormal(mean, sd)
	lo := sn.Quantile(1e-12)
	hi := math.Min(h.R, sn.Quantile(1-1e-12))
	if lo >= hi {
		return 0
	}
	integrand := func(x float64) float64 {
		return x * ck(h.R-x) * sn.PDF(x)
	}
	return quad.Kronrod(integrand, lo, hi, 1e-11, 1e-9).Value
}
