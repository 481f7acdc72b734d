//go:build race

package advisor

// raceEnabled reports that the race detector is active; sync.Pool
// deliberately drops cached items under -race, so steady-state
// allocation assertions do not hold there.
const raceEnabled = true
