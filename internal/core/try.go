package core

import (
	"fmt"
	"math"

	"reskit/internal/dist"
)

// This file holds the error-returning constructors. The classic New*
// constructors remain for programmatic use — a bad argument there is a
// programming bug and panics with the same message — but code building
// problems from untrusted input (CLI flags, config files) uses TryNew*
// and reports the error to the user instead of crashing. Each pair
// shares one validation path, so the panic and error texts never drift.

func validateR(what string, r float64) error {
	if !(r > 0) || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("core: %s: R must be positive and finite, got %g", what, r)
	}
	return nil
}

// TryNewPreemptible is NewPreemptible returning an error instead of
// panicking on invalid arguments.
func TryNewPreemptible(r float64, c dist.Continuous) (*Preemptible, error) {
	if err := validateR("Preemptible", r); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("core: Preemptible: checkpoint law must not be nil")
	}
	a, b := c.Support()
	if !(0 < a && a < b) || math.IsInf(b, 1) {
		return nil, fmt.Errorf("core: Preemptible: checkpoint law must have finite support [a, b] with 0 < a < b, got [%g, %g]", a, b)
	}
	if !(r > a) {
		return nil, fmt.Errorf("core: Preemptible: R = %g leaves no room for the minimum checkpoint a = %g", r, a)
	}
	return &Preemptible{R: r, C: c, a: a, b: b}, nil
}

func tryValidateStaticCommon(r float64, ckpt dist.Continuous) error {
	if err := validateR("Static", r); err != nil {
		return err
	}
	if ckpt == nil {
		return fmt.Errorf("core: Static: checkpoint law must not be nil")
	}
	if lo, _ := ckpt.Support(); lo < 0 {
		return fmt.Errorf("core: Static: checkpoint law support must start at >= 0, got %g", lo)
	}
	return nil
}

// TryNewStatic is NewStatic returning an error instead of panicking.
func TryNewStatic(r float64, task dist.Summable, ckpt dist.Continuous) (*Static, error) {
	if err := tryValidateStaticCommon(r, ckpt); err != nil {
		return nil, err
	}
	if task == nil {
		return nil, fmt.Errorf("core: NewStatic: task law must not be nil")
	}
	return &Static{R: r, Ckpt: ckpt, Task: task}, nil
}

// TryNewStaticDiscrete is NewStaticDiscrete returning an error instead of
// panicking.
func TryNewStaticDiscrete(r float64, task dist.SummableDiscrete, ckpt dist.Continuous) (*Static, error) {
	if err := tryValidateStaticCommon(r, ckpt); err != nil {
		return nil, err
	}
	if task == nil {
		return nil, fmt.Errorf("core: NewStaticDiscrete: task law must not be nil")
	}
	return &Static{R: r, Ckpt: ckpt, TaskDisc: task}, nil
}

func tryValidateDynamicCommon(r float64, ckpt dist.Continuous) error {
	if err := validateR("Dynamic", r); err != nil {
		return err
	}
	if ckpt == nil {
		return fmt.Errorf("core: Dynamic: checkpoint law must not be nil")
	}
	if lo, _ := ckpt.Support(); lo < 0 {
		return fmt.Errorf("core: Dynamic: checkpoint law support must start at >= 0, got %g", lo)
	}
	return nil
}

// TryNewDynamic is NewDynamic returning an error instead of panicking.
func TryNewDynamic(r float64, task dist.Continuous, ckpt dist.Continuous) (*Dynamic, error) {
	if err := tryValidateDynamicCommon(r, ckpt); err != nil {
		return nil, err
	}
	if task == nil {
		return nil, fmt.Errorf("core: NewDynamic: task law must not be nil")
	}
	lo, hi := task.Support()
	if lo < 0 {
		return nil, fmt.Errorf("core: NewDynamic: task law support must start at >= 0, got %g", lo)
	}
	if lo == hi {
		return nil, fmt.Errorf("%w (task law %v)", ErrPointMassTask, task)
	}
	return &Dynamic{
		R: r, Ckpt: ckpt, Task: task,
		ckptB: dist.AsBatch(ckpt), taskB: dist.AsBatch(task),
	}, nil
}

// TryNewDynamicDiscrete is NewDynamicDiscrete returning an error instead
// of panicking.
func TryNewDynamicDiscrete(r float64, task dist.Discrete, ckpt dist.Continuous) (*Dynamic, error) {
	if err := tryValidateDynamicCommon(r, ckpt); err != nil {
		return nil, err
	}
	if task == nil {
		return nil, fmt.Errorf("core: NewDynamicDiscrete: task law must not be nil")
	}
	return &Dynamic{R: r, Ckpt: ckpt, TaskDisc: task, ckptB: dist.AsBatch(ckpt)}, nil
}

func tryValidateGrid(what string, r float64, task, ckpt dist.Continuous) error {
	if err := validateR(what, r); err != nil {
		return err
	}
	if task == nil || ckpt == nil {
		return fmt.Errorf("core: %s: task and checkpoint laws must be set", what)
	}
	if lo, _ := task.Support(); lo < 0 {
		return fmt.Errorf("core: %s: task support starts below 0 (%g)", what, lo)
	}
	if lo, _ := ckpt.Support(); lo < 0 {
		return fmt.Errorf("core: %s: checkpoint support starts below 0 (%g)", what, lo)
	}
	return nil
}

// TryNewDP is NewDP returning an error instead of panicking.
func TryNewDP(r float64, task, ckpt dist.Continuous, steps int) (*DP, error) {
	if err := tryValidateGrid("DP", r, task, ckpt); err != nil {
		return nil, err
	}
	if steps < 16 {
		steps = 2048
	}
	return &DP{R: r, Task: task, Ckpt: ckpt, steps: steps}, nil
}

// TryNewMultiDP is NewMultiDP returning an error instead of panicking.
func TryNewMultiDP(r float64, task, ckpt dist.Continuous, steps int) (*MultiDP, error) {
	if err := tryValidateGrid("MultiDP", r, task, ckpt); err != nil {
		return nil, err
	}
	if steps < 16 {
		steps = 256
	}
	return &MultiDP{R: r, Task: task, Ckpt: ckpt, steps: steps}, nil
}

// TryNewHeterogeneous is NewHeterogeneous returning an error instead of
// panicking.
func TryNewHeterogeneous(r float64, tasks []TaskSpec) (*Heterogeneous, error) {
	if err := validateR("Heterogeneous", r); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("core: Heterogeneous: empty task chain")
	}
	for i, t := range tasks {
		if t.Duration == nil || t.Ckpt == nil {
			return nil, fmt.Errorf("core: Heterogeneous: task %d is missing a law", i)
		}
		if lo, _ := t.Duration.Support(); lo < 0 {
			return nil, fmt.Errorf("core: Heterogeneous: task %d duration support starts below 0", i)
		}
		if lo, _ := t.Ckpt.Support(); lo < 0 {
			return nil, fmt.Errorf("core: Heterogeneous: task %d checkpoint support starts below 0", i)
		}
	}
	return &Heterogeneous{R: r, Tasks: tasks}, nil
}
