package flowsim

import "bgpvr/internal/par"

// Sharded sections engage only above these work sizes: below them the
// serial body beats a gang rendezvous. The thresholds never affect
// results — the serial and sharded forms apply identical updates in
// identical per-link order — so the equivalence tests lower them to
// exercise every sharded path on small configs.
var (
	shardMinTouches = 2048 // freeze round: route entries touched
	shardMinLinks   = 4096 // event reset: active links refiled
	shardMinFlows   = 8192 // advance: live members drained
	shardMinScan    = 4096 // pop scan: bucket entries scanned
)

// gang runs the kernel's four per-round sections (event reset, pop
// scan, freeze pass 2, drain) over worker tiles — the same bodies the
// serial path calls — and owns the scratch only a wide simulation
// needs. Links are owned by worker (link index mod width), and each
// worker gets a CSR view of every group's route restricted to its
// links, built once. The shard bodies are bound once and read each
// round's parameters here; every merge runs on the caller.
type gang struct {
	*par.Gang
	s *sim

	swLinks, swMults, swOff [][]int32 // per-worker route CSR

	refBuf [][]refile // per worker: buffered refiles
	fileB  []int32    // event reset: bucket per activeLinks position
	doneK  []int32    // drain: finished members per activeGroups position
	mins   []scanMin  // pop scan: per-worker result
	sel    float64    // claim: the round's share
	dt     float64    // drain: the event's time step
	scan   []int32    // pop scan: the bucket list being scanned
	scanB  int32      // pop scan: the bucket being scanned

	resetFn, scanFn, claimFn, drainFn func(w int)
}

// scanMin is one worker's pop-scan result.
type scanMin struct {
	kept, best int
	bestS      float64
}

func newGang(s *sim, workers int) *gang {
	ngroups := len(s.routes)
	g := &gang{
		s:       s,
		swLinks: make([][]int32, workers),
		swMults: make([][]int32, workers),
		swOff:   make([][]int32, workers),
		refBuf:  make([][]refile, workers),
		fileB:   make([]int32, len(s.activeLinks)),
		doneK:   make([]int32, ngroups),
		mins:    make([]scanMin, workers),
	}
	for w := range g.swOff {
		g.swOff[w] = make([]int32, ngroups+1)
	}
	for gi, route := range s.routes {
		for j, l := range route {
			w := int(l) % workers
			g.swLinks[w] = append(g.swLinks[w], l)
			if s.mults != nil {
				g.swMults[w] = append(g.swMults[w], s.mults[gi][j])
			}
		}
		for w := range g.swOff {
			g.swOff[w][gi+1] = int32(len(g.swLinks[w]))
		}
	}
	g.resetFn, g.scanFn, g.claimFn, g.drainFn = g.resetShard, g.scanShard, g.claimShard, g.drainShard
	g.Gang = par.NewGang(workers)
	return g
}

// tile is worker w's contiguous [lo, hi) of an n-sized index space
// (no merge below depends on where the boundaries fall).
func (g *gang) tile(n, w int) (int, int) {
	return n * w / g.Width(), n * (w + 1) / g.Width()
}

// resetLinks resets every active link and returns each position's
// fresh bucket for the caller to file in order.
func (g *gang) resetLinks() []int32 {
	g.Run(g.resetFn)
	return g.fileB[:len(g.s.activeLinks)]
}

func (g *gang) resetShard(w int) {
	links := g.s.activeLinks
	lo, hi := g.tile(len(links), w)
	for pos := lo; pos < hi; pos++ {
		g.fileB[pos] = g.s.resetLink(links[pos])
	}
}

// scanBucket is scanTile over worker tiles of lst. Workers compact
// their own tiles in place, so concatenating the survivor segments in
// worker order reproduces the one-tile compaction order; stale entries
// are lifted in worker order (= list order); and the selected minimum
// is the lexicographic merge of the worker minima — order-independent,
// so bit-identical to the one-tile scan's.
func (g *gang) scanBucket(lst []int32, b int32) (kept, best int, bestS float64) {
	g.scan, g.scanB = lst, b
	g.Run(g.scanFn)
	best = -1
	for w, m := range g.mins {
		lo, _ := g.tile(len(lst), w)
		copy(lst[kept:kept+m.kept], lst[lo:lo+m.kept])
		kept += m.kept
		if m.best >= 0 && (best < 0 || m.bestS < bestS || (m.bestS == bestS && m.best < best)) {
			best, bestS = m.best, m.bestS
		}
	}
	for _, stale := range g.refBuf {
		g.s.liftStale(b, stale)
	}
	return kept, best, bestS
}

func (g *gang) scanShard(w int) {
	lo, hi := g.tile(len(g.scan), w)
	m := &g.mins[w]
	m.kept, m.best, m.bestS, g.refBuf[w] = scanTile(g.s.ls, g.scan[lo:hi], g.scanB, g.refBuf[w][:0])
}

// claim is claimRoute over the workers' links of the round's groups.
// Each link's updates happen in the same (group, route) order as
// serially — a worker owns every occurrence of its links — and the
// buffered dips are filed in worker order, which the bucket queue
// cannot observe (selection is an order-independent minimum).
func (g *gang) claim(sel float64) {
	g.sel = sel
	g.Run(g.claimFn)
	for _, dips := range g.refBuf {
		g.s.q.fileAll(dips)
	}
}

func (g *gang) claimShard(w int) {
	lks, off := g.swLinks[w], g.swOff[w]
	dips := g.refBuf[w][:0]
	for _, rgp := range g.s.roundGroups {
		lo, hi := off[rgp.g], off[rgp.g+1]
		var ws []int32
		if g.s.mults != nil {
			ws = g.swMults[w][lo:hi]
		}
		dips = claimRoute(g.s.ls, lks[lo:hi], ws, g.sel, rgp.k, dips)
	}
	g.refBuf[w] = dips
}

// drain is drainGroup over tiles of activeGroups; it returns the
// finished-member count per position for the caller to retire in order.
func (g *gang) drain(dt float64) []int32 {
	g.dt = dt
	g.Run(g.drainFn)
	return g.doneK[:len(g.s.activeGroups)]
}

func (g *gang) drainShard(w int) {
	groups := g.s.activeGroups
	lo, hi := g.tile(len(groups), w)
	for pos := lo; pos < hi; pos++ {
		g.doneK[pos] = g.s.drainGroup(groups[pos], g.dt)
	}
}
