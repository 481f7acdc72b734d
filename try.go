package reskit

import (
	"reskit/internal/core"
	"reskit/internal/strategy"
)

// Error-returning twins of the constructors the command-line tools feed
// from flags. The classic New* constructors panic on invalid arguments —
// appropriate when the arguments are literals in a program — while the
// Try* variants return the same validation failures as errors, for
// callers assembling problems from flags, config files, or other
// untrusted input.

// TryNewPreemptible is NewPreemptible returning an error instead of
// panicking on an invalid setup.
func TryNewPreemptible(r float64, c Continuous) (*Preemptible, error) {
	return core.TryNewPreemptible(r, c)
}

// TryNewStatic is NewStatic returning an error instead of panicking.
func TryNewStatic(r float64, task Summable, ckpt Continuous) (*Static, error) {
	return core.TryNewStatic(r, task, ckpt)
}

// TryNewStaticDiscrete is NewStaticDiscrete returning an error instead
// of panicking.
func TryNewStaticDiscrete(r float64, task SummableDiscrete, ckpt Continuous) (*Static, error) {
	return core.TryNewStaticDiscrete(r, task, ckpt)
}

// TryNewDynamic is NewDynamic returning an error instead of panicking.
func TryNewDynamic(r float64, task Continuous, ckpt Continuous) (*Dynamic, error) {
	return core.TryNewDynamic(r, task, ckpt)
}

// TryNewDynamicDiscrete is NewDynamicDiscrete returning an error instead
// of panicking.
func TryNewDynamicDiscrete(r float64, task Discrete, ckpt Continuous) (*Dynamic, error) {
	return core.TryNewDynamicDiscrete(r, task, ckpt)
}

// TryNewDP is NewDP returning an error instead of panicking.
func TryNewDP(r float64, task, ckpt Continuous, steps int) (*DP, error) {
	return core.TryNewDP(r, task, ckpt, steps)
}

// TryNewMultiDP is NewMultiDP returning an error instead of panicking.
func TryNewMultiDP(r float64, task, ckpt Continuous, steps int) (*MultiDP, error) {
	return core.TryNewMultiDP(r, task, ckpt, steps)
}

// TryPessimisticStrategy is PessimisticStrategy returning an error
// instead of panicking.
func TryPessimisticStrategy(xMax, cMax float64) (Strategy, error) {
	return strategy.TryNewPessimistic(xMax, cMax)
}
