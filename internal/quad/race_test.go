//go:build race

package quad

// raceEnabled reports that the race detector is active; sync.Pool
// deliberately drops cached items under -race, so allocation
// assertions about the pooled workspace do not hold there.
const raceEnabled = true
