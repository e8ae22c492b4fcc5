//go:build race

package compose

// Under the race detector sync.Pool drops a quarter of what is put into
// it, so allocation ceilings that count on recycled buffers do not hold.
const raceEnabled = true
