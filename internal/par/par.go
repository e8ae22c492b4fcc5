// Package par is the process-local work-scheduling substrate for the
// hot paths: a bounded worker pool that spreads an indexed set of
// independent work items over GOMAXPROCS-sized widths. It is what lets
// the renderer cast tiles of rays concurrently, the bench sweeps
// evaluate scale points concurrently, and any future hot loop go wide
// without reinventing pool plumbing.
//
// The contract is determinism: callers give each work item a disjoint
// output slot (a tile's pixel range, a sweep point's table row), so the
// assembled result is bit-identical at every width — including width 1,
// where For degenerates to an inline loop that starts no goroutines and
// allocates nothing. Worker panics propagate to the caller with the
// worker's stack attached; ForErr returns the lowest-index error so the
// reported failure does not depend on scheduling.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a requested pool width: w > 0 is used as given;
// 0 (and anything negative) means "all cores", i.e. GOMAXPROCS. This is
// the shared meaning of every -workers flag.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Tile is one contiguous chunk [Lo, Hi) of a 1-D index space.
type Tile struct{ Lo, Hi int }

// Tiles splits [0, n) into min(parts, n) contiguous tiles in ascending
// order, sized within one of each other (the first n%parts tiles are
// one longer). The ordered decomposition is what makes tile-parallel
// reductions deterministic: per-tile results live in the tile's slot
// and are folded in tile order afterwards.
func Tiles(n, parts int) []Tile {
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	tiles := make([]Tile, parts)
	q, r := n/parts, n%parts
	lo := 0
	for i := range tiles {
		hi := lo + q
		if i < r {
			hi++
		}
		tiles[i] = Tile{Lo: lo, Hi: hi}
		lo = hi
	}
	return tiles
}

// totalBusy and totalWall accumulate, across every For/ForErr call in
// the process, the time workers spent executing items and the elapsed
// time of the calls. Their ratio is the realized parallel speedup the
// perf report records.
var totalBusy, totalWall atomic.Int64

// Stats returns the cumulative worker-busy and call-elapsed time over
// all pool invocations so far. busy/wall is the realized speedup
// (~1 when everything ran at width 1).
func Stats() (busy, wall time.Duration) {
	return time.Duration(totalBusy.Load()), time.Duration(totalWall.Load())
}

// For runs fn(i) for every i in [0, n) across at most workers
// goroutines (workers <= 0 means all cores). Items are claimed from an
// atomic cursor, so uneven item costs balance dynamically; fn must make
// runs independent (disjoint output slots) for the result to be
// deterministic. With an effective width of 1 the loop runs inline on
// the caller's goroutine: no goroutines, no channels, no allocation.
// A panic in any item is re-raised on the caller with the worker's
// stack; remaining items may still have run.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	start := time.Now()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := int64(time.Since(start))
		totalBusy.Add(d)
		totalWall.Add(d)
		return
	}
	var (
		cursor atomic.Int64
		busy   atomic.Int64
		pan    atomic.Pointer[panicked]
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			defer func() {
				busy.Add(int64(time.Since(t0)))
				if r := recover(); r != nil {
					buf := make([]byte, 8<<10)
					buf = buf[:runtime.Stack(buf, false)]
					pan.CompareAndSwap(nil, &panicked{val: r, stack: buf})
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	totalBusy.Add(busy.Load())
	totalWall.Add(int64(time.Since(start)))
	if p := pan.Load(); p != nil {
		panic(fmt.Sprintf("par: worker panic: %v\n%s", p.val, p.stack))
	}
}

// panicked carries a recovered worker panic to the caller.
type panicked struct {
	val   any
	stack []byte
}

// ForErr is For over a fallible item function. All items run (an error
// does not cancel in-flight or unclaimed ones — items are independent
// by contract), and the error of the lowest-index failing item is
// returned, so the reported failure is the same at every width. Width 1
// runs inline and, like For, allocates nothing beyond what fn does.
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		start := time.Now()
		var first error
		firstIdx := n
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && i < firstIdx {
				first, firstIdx = err, i
			}
		}
		d := int64(time.Since(start))
		totalBusy.Add(d)
		totalWall.Add(d)
		return first
	}
	var (
		mu       sync.Mutex
		first    error
		firstIdx = n
	)
	For(workers, n, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				first, firstIdx = err, i
			}
			mu.Unlock()
		}
	})
	return first
}
