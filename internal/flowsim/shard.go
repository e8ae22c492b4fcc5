package flowsim

import "bgpvr/internal/par"

// Sharded sections engage only above these work sizes: below them the
// serial body beats a gang rendezvous. The thresholds never affect
// results — the serial and sharded forms apply identical updates in
// identical per-link order — so the equivalence tests lower them to
// exercise every sharded path on small configs.
var (
	shardMinTouches = 2048 // freeze round: route entries touched
	shardMinFlows   = 8192 // advance: live members drained
	shardMinScan    = 4096 // pop scan: bucket entries scanned
)

// gang runs the kernel's per-round sections (pop scan, freeze pass 2,
// drain) over worker tiles — the same bodies the serial path calls —
// and owns the scratch only a wide simulation needs. Links are owned by
// worker (link index mod width): worker w claims through shards[w], its
// links of every route, built once. The shard bodies are bound once and
// read each round's parameters here; every merge runs on the caller.
type gang struct {
	*par.Gang
	s *sim

	shards []routeCSR // per worker: the links it owns of every route, entry order kept

	refBuf [][]refile   // per worker: buffered refiles
	doneK  []int32      // drain: finished members per activeGroups position
	mins   []scanMin    // pop scan: per-worker result
	round  []roundGroup // claim: the round's groups
	sel    float64      // claim: the round's share
	dt     float64      // drain: the event's time step
	scan   []int32      // pop scan: the bucket list being scanned
	scanB  int32        // pop scan: the bucket being scanned

	scanFn, claimFn, drainFn func(w int)
}

// scanMin is one worker's pop-scan result.
type scanMin struct {
	kept, best int
	bestS      float64
}

func newGang(s *sim, workers int) *gang {
	g := &gang{
		s:      s,
		shards: make([]routeCSR, workers),
		refBuf: make([][]refile, workers),
		doneK:  make([]int32, len(s.gs)),
		mins:   make([]scanMin, workers),
	}
	rt := &s.routes
	for w := range g.shards {
		g.shards[w].off = make([]int32, len(rt.off))
		g.shards[w].undo = rt.undo
	}
	for gi := 1; gi < len(rt.off); gi++ {
		for j := rt.off[gi-1]; j < rt.off[gi]; j++ {
			sh := &g.shards[int(rt.links[j])%workers]
			sh.links = append(sh.links, rt.links[j])
			sh.pos = append(sh.pos, j)
			if rt.mults != nil {
				sh.mults = append(sh.mults, rt.mults[j])
			}
		}
		for w := range g.shards {
			g.shards[w].off[gi] = int32(len(g.shards[w].links))
		}
	}
	g.scanFn, g.claimFn, g.drainFn = g.scanShard, g.claimShard, g.drainShard
	g.Gang = par.NewGang(workers)
	return g
}

// tile is worker w's contiguous [lo, hi) of an n-sized index space
// (no merge below depends on where the boundaries fall).
func (g *gang) tile(n, w int) (int, int) {
	return n * w / g.Width(), n * (w + 1) / g.Width()
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

// claim is routeCSR.claim over the workers' shards. Each link's
// updates happen in the same (group, route) order as serially — a
// worker owns every occurrence of its links — and the buffered dips are
// filed in worker order, which the bucket queue cannot observe
// (selection is an order-independent minimum).
func (g *gang) claim(round []roundGroup, sel float64) {
	g.round, g.sel = round, sel
	g.Run(g.claimFn)
	for _, dips := range g.refBuf {
		g.s.q.fileAll(dips)
	}
}

func (g *gang) claimShard(w int) {
	g.refBuf[w] = g.shards[w].claim(g.s.ls, g.round, g.sel, g.refBuf[w][:0])
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
