//go:build race

package scratch

// Under the race detector sync.Pool drops a quarter of what is put into
// it, so a get/put pair does allocate now and then.
const raceEnabled = true
