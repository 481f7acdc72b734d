//go:build !race

package advisor

const raceEnabled = false
