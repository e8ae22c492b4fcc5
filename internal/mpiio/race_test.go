//go:build race

package mpiio

// Under the race detector sync.Pool drops a quarter of what is put into
// it, so allocation ceilings that count on the pooled buffer do not hold.
const raceEnabled = true
