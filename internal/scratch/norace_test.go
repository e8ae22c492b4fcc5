//go:build !race

package scratch

const raceEnabled = false
