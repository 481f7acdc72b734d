//go:build !race

package quad

const raceEnabled = false
