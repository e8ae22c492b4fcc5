// Package scratch recycles the large buffers whose lifetime is one
// frame: subimages, tile accumulators, wire messages, aggregator
// replies, block fields, lookup tables. It is the tree's one pool
// mechanism.
//
// The ownership rule every user follows: whoever consumes a buffer last
// releases it; a buffer never released is garbage, not a leak; nothing a
// cache or the caller holds is ever released. So a Put is an
// optimization its absence cannot break, and the only bug the rule
// admits is a use after release — which the poison switch (Poison)
// turns into NaN pixels and 0xFF bytes under test.
//
// A Pool is size-classed with sync.Pool underneath, so it has no
// capacity to tune, is safe for concurrent use, and gives its memory
// back under GC pressure.
package scratch

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

// Size classes: four per power of two (2^k times 1, 1.25, 1.5, 1.75),
// so a buffer is at most a quarter larger than what was asked for.
// Requests below minLen elements are not worth a pool round trip and
// requests above the last class are too rare to keep resident; both are
// plain allocations that Put drops.
const (
	minBits  = 4  // smallest class: 16 elements
	maxBits  = 26 // classes end below 2^26 elements
	nClasses = 4 * (maxBits - minBits)
	minLen   = 1 << minBits
)

// classSize is the capacity of class c.
func classSize(c int) int {
	return (4 + c%4) << (minBits - 2 + c/4)
}

// classFloor is the largest class whose size is at most n (n >= minLen).
func classFloor(n int) int {
	k := bits.Len(uint(n)) - 1 // 2^k <= n < 2^(k+1)
	return 4*(k-minBits) + (n>>(k-2))&3
}

// Pool recycles []T. The zero value is ready to use; a Pool must not be
// copied after first use. T should hold no pointers (in this tree it is
// a number or a small struct of numbers): a recycled buffer's stale
// contents would keep what they point to alive.
type Pool[T any] struct {
	// Poison is what a released buffer is filled with while poisoning is
	// on: something a pin or a bounds check cannot miss (NaN, 0xFF, -1).
	Poison T

	classes [nClasses]sync.Pool // of *[]T with cap >= classSize
	// boxes holds the emptied *[]T of Get for the next Put, so that a
	// get/put pair allocates nothing: a slice header put into a sync.Pool
	// directly would be boxed afresh every time.
	boxes sync.Pool
}

// Get returns a slice of n elements whose contents are unspecified: the
// taker overwrites or clears it.
func (p *Pool[T]) Get(n int) []T {
	if n < minLen || n > classSize(nClasses-1) {
		return make([]T, n)
	}
	c := classFloor(n)
	if classSize(c) < n {
		c++
	}
	if box, _ := p.classes[c].Get().(*[]T); box != nil {
		s := *box
		*box = nil
		p.boxes.Put(box)
		return s[:n]
	}
	return make([]T, n, classSize(c))
}

// Put releases s, which the caller must not touch again. Any slice may
// be released, recycled or not; one too small or too large to keep is
// dropped.
func (p *Pool[T]) Put(s []T) {
	s = s[:cap(s)]
	if len(s) < minLen {
		return
	}
	if poison.Load() {
		for i := range s {
			s[i] = p.Poison
		}
	}
	if len(s) > classSize(nClasses-1) {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s
	p.classes[classFloor(len(s))].Put(box)
}

// poison is the ownership test's switch: see Poison.
var poison atomic.Bool

// Poison turns the filling of every released buffer with its pool's
// Poison value on or off, and returns the previous setting. With it on,
// code that reads a buffer after releasing it, or relies on a taken
// buffer being zero, computes garbage that the bit-identity pins catch.
// It is for tests only — TestMain of the packages that own buffers sets
// it — and panics outside a test binary.
func Poison(on bool) (was bool) {
	if !testing.Testing() {
		panic("scratch: Poison called outside a test")
	}
	return poison.Swap(on)
}
