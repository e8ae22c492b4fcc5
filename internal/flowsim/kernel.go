package flowsim

import (
	"cmp"
	"math"
	"slices"

	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

// dtSlack pads the completion-time skip bound: a candidate with
// remaining >= dt*sel*dtSlack satisfies fl(remaining/sel) > dt under
// any round-to-nearest outcome (the pad dwarfs the few ulps the
// multiply and divide can each contribute), so skipping its division
// can never change the running minimum.
const dtSlack = 1.000000000001

// linkState packs each link's max-min scratch state into 16 bytes: the
// freeze inner loop reads and writes all three fields per touched link,
// so density here is memory traffic in the hottest loop of the kernel.
// The share itself is not cached — the pop scan recomputes the exact
// avail/unfrozen division for the handful of links it examines, which
// is far cheaper than dividing on every one of the billions of touches.
type linkState struct {
	avail    float64 // bandwidth not yet claimed by frozen flows
	unfrozen int32   // live flows not yet frozen this event
	inBucket int32   // bucket currently holding this link's valid entry
}

// groupState likewise packs each same-route group's hot state: the
// freeze pass reads front/end/frozen and writes rate for every group
// on the bottleneck's list, round after round.
type groupState struct {
	rate       float64 // members' common rate (stale until refrozen)
	front, end int32   // live members are mRemaining[front:end]
	frozen     bool
}

// roundGroup is a group frozen this round and its live-member count.
type roundGroup struct{ g, k int32 }

// sim is the state of one max-min simulation: built by newSim, driven
// by run, read out by finish.
//
// The active sets are sparse — the groups still in flight and the links
// they cross, both compacted in place as members complete. Flows never
// start mid-phase, so both sets only shrink; the scratch arrays stay
// full-size but only active entries are ever read or reset, so a
// simulation allocates the same slices however many events it runs.
type sim struct {
	p  torus.Params
	u  *telemetry.LinkUsage // nil in approx mode
	ft *FlowTimes

	routes       [][]int32 // per-group link list (model links in approx mode)
	mults        [][]int32 // per-entry route weights; nil in exact mode
	mRemaining   []float64 // per-member bytes left, ascending within a group
	mMsgOf       []int32   // per-member index into msgs
	gs           []groupState
	activeGroups []int32
	roundGroups  []roundGroup // freezeRound pass 1's output

	capOf       []float64 // per-link capacity; nil in exact mode (all LinkBandwidth)
	bucketTab   []int32   // exact mode: bucket of fl(LinkBandwidth/n) per live count n
	liveOnLink  []int32   // unfinished-flow count (weighted in approx mode)
	linkGroups  [][]int32 // groups crossing each link, finished ones dropped lazily
	ls          []linkState
	activeLinks []int32
	q           bucketQueue
	refile      []refile // serial scan/claim refile buffer
	gang        *gang    // nil when every section runs serially

	nflows, totalRoute int
	active             int     // flows not yet complete
	now                float64 // simulated time, overheads excluded
	overheadMax        float64
	lbNow              float64 // approx mode: heaviest physical link's drain time
}

// newSim is the build phase. Messages are grouped by (src, dst)
// endpoint pair: deterministic dimension-ordered routing gives every
// flow of a pair the identical link list, so max-min fairness freezes
// them in the same round at the same share in every event — identical
// rates always. The whole group can therefore be frozen with one pass
// over its route, and because all live members drain at one common rate
// their remaining bytes keep the order they started in: members are
// sorted by size ascending once, and completions simply advance a
// per-group front. In approx mode (rg != nil) each group's route is
// mapped hop by hop into model-link space, consecutive hops through one
// transit aggregate merged into one weighted entry.
func newSim(top torus.Topology, p torus.Params, msgs []torus.Message,
	u *telemetry.LinkUsage, ft *FlowTimes, rg *torus.Regions) *sim {
	s := &sim{p: p, u: u, ft: ft}
	nlinks := top.NumLinks()
	if rg != nil {
		s.u = nil // model links do not name physical links
		nlinks = rg.NumModelLinks()
		s.capOf = rg.ModelCapacity(p)
	}
	if s.u != nil {
		s.u.Capacity = p.LinkBandwidth
	}
	if ft != nil {
		ft.Done = make([]float64, len(msgs))
	}
	oh := p.SendOverhead + p.RecvOverhead
	if len(msgs) > 0 && oh > 0 {
		s.overheadMax = oh
	}

	gidOf := make(map[int64]int32, len(msgs))
	mem := make([]member, 0, len(msgs))
	var loads []groupLoad // approx mode only
	s.liveOnLink = make([]int32, nlinks)
	s.linkGroups = make([][]int32, nlinks)
	for mi, m := range msgs {
		if m.Src == m.Dst || m.Bytes == 0 {
			if ft != nil {
				ft.Done[mi] = oh + p.RouteLatency
			}
			continue // pure-overhead flow
		}
		key := int64(m.Src)<<32 | int64(m.Dst)
		g, ok := gidOf[key]
		if !ok {
			g = int32(len(s.routes))
			gidOf[key] = g
			var links, ws []int32
			if rg != nil {
				links, ws = rg.ModelRoute(m.Src, m.Dst)
				s.mults = append(s.mults, ws)
				loads = append(loads, groupLoad{src: int32(m.Src), dst: int32(m.Dst)})
			} else {
				top.Route(m.Src, m.Dst, func(l int) { links = append(links, int32(l)) })
			}
			s.routes = append(s.routes, links)
			for _, l := range links {
				s.linkGroups[l] = append(s.linkGroups[l], g)
			}
		}
		mem = append(mem, member{g, int32(mi), float64(m.Bytes)})
		if rg != nil {
			for j, l := range s.routes[g] {
				s.liveOnLink[l] += s.mults[g][j]
			}
			loads[g].bytes += float64(m.Bytes)
		} else {
			for _, l := range s.routes[g] {
				s.liveOnLink[l]++
				s.u.RecordLink(int(l), m.Bytes)
			}
		}
	}

	// Members flatten group by group, size ascending within a group
	// (equal sizes complete together, so their order is immaterial).
	slices.SortFunc(mem, func(a, b member) int {
		return cmp.Or(cmp.Compare(a.g, b.g), cmp.Compare(a.rem, b.rem))
	})
	ngroups := len(s.routes)
	s.nflows = len(mem)
	s.gs = make([]groupState, ngroups)
	s.mRemaining = make([]float64, s.nflows)
	s.mMsgOf = make([]int32, s.nflows)
	s.activeGroups = make([]int32, ngroups)
	for i, m := range mem {
		s.mRemaining[i], s.mMsgOf[i] = m.rem, m.msg
		s.gs[m.g].end = int32(i + 1)
	}
	for g := range s.gs {
		if g > 0 {
			s.gs[g].front = s.gs[g-1].end
		}
		s.activeGroups[g] = int32(g)
		s.totalRoute += len(s.routes[g])
	}
	if rg != nil {
		// The certifiable lower bound: every physical link must carry
		// its routed payload at no more than its bandwidth, whatever
		// the sharing discipline. Group order is deterministic, so the
		// folded sums (and thus the reported bound) are reproducible.
		loadPhys := make([]float64, top.NumLinks())
		for _, ld := range loads {
			top.Route(int(ld.src), int(ld.dst), func(l int) { loadPhys[l] += ld.bytes })
		}
		for _, b := range loadPhys {
			if t := b / p.LinkBandwidth; t > s.lbNow {
				s.lbNow = t
			}
		}
	}

	s.active = s.nflows
	s.activeLinks = make([]int32, 0, nlinks)
	maxLive := int32(0)
	for l, n := range s.liveOnLink {
		if n > 0 {
			s.activeLinks = append(s.activeLinks, int32(l))
			maxLive = max(maxLive, n)
		}
	}
	// A round freezes at most the bottleneck's live groups, and each of
	// those holds at least one unit of its live count.
	s.roundGroups = make([]roundGroup, 0, min(int(maxLive), ngroups))
	s.ls = make([]linkState, nlinks)
	// Live counts are small integers, so exact mode files event resets
	// from a precomputed fl(BW/n) bucket table; approx mode divides per
	// active link instead (capacities vary per link).
	if s.capOf == nil {
		s.bucketTab = make([]int32, maxLive+1)
		for n := int32(1); n <= maxLive; n++ {
			s.bucketTab[n] = int32(math.Float64bits(p.LinkBandwidth/float64(n)) >> bShift)
		}
	}
	s.q.bucket = make([][]int32, nBuckets)
	s.q.stamp = make([]int32, nBuckets)
	return s
}

// run is the event loop: while flows remain, recompute the max-min
// fair rates — each round freezes the flows crossing the currently
// most-contended link at its fair share — then advance to the next
// completion. It returns the number of events processed. The next
// completion time is folded into the rounds: every live group is
// frozen exactly once per event at its members' common rate, and
// rounding is monotone, so the running minimum of front-member
// remaining/share over freezes equals the full scan's minimum of
// remaining/rate over every flow.
func (s *sim) run() (events int) {
	for s.active > 0 {
		s.resetEvent()
		dt := math.Inf(1)
		unfrozen := s.active
		rounds := 0 // flushed to the obs counters once per event
		for unfrozen > 0 {
			bott, sel := s.popBottleneck()
			if bott < 0 {
				break // flows with no links (cannot happen: newSim skips them)
			}
			s.u.AddBottleneck(bott)
			rounds++
			var k int
			k, dt = s.freezeRound(bott, sel, dt)
			unfrozen -= k
		}
		if unfrozen > 0 {
			dt = s.staleRates(dt)
		}
		events++
		cSimEvents.Inc()
		cSimFreezeRounds.Add(int64(rounds))
		cSimFrozenFlows.Add(int64(s.active - unfrozen))
		if math.IsInf(dt, 1) {
			break // starved flows: cannot progress (zero bandwidth)
		}
		s.advance(dt)
	}
	return events
}

// resetEvent drops finished groups and idle links from the active sets
// (order preserved), clears the per-event freeze state, and files every
// active link under its fresh share. The gang only computes the shares:
// the pushes stay serial, in activeLinks order, at every width.
func (s *sim) resetEvent() {
	w := 0
	for _, g := range s.activeGroups {
		if st := &s.gs[g]; st.front < st.end {
			st.frozen = false
			s.activeGroups[w] = g
			w++
		}
	}
	s.activeGroups = s.activeGroups[:w]
	w = 0
	for _, l := range s.activeLinks {
		if s.liveOnLink[l] > 0 {
			s.activeLinks[w] = l
			w++
		}
	}
	s.activeLinks = s.activeLinks[:w]

	s.q.reset()
	if s.gang != nil && len(s.activeLinks) >= shardMinLinks {
		for pos, b := range s.gang.resetLinks() {
			s.q.file(s.activeLinks[pos], b)
		}
		return
	}
	for _, l := range s.activeLinks {
		s.q.file(l, s.resetLink(l))
	}
}

// resetLink restores link l for a new event and returns the bucket of
// its fresh share.
func (s *sim) resetLink(l int32) int32 {
	st := &s.ls[l]
	n := s.liveOnLink[l]
	st.unfrozen = n
	var b int32
	if s.capOf == nil {
		st.avail = s.p.LinkBandwidth
		b = s.bucketTab[n]
	} else {
		st.avail = s.capOf[l]
		b = int32(math.Float64bits(s.capOf[l]/float64(n)) >> bShift)
	}
	st.inBucket = b
	return b
}

// popBottleneck selects the round's bottleneck: the unsaturated link
// with the smallest exact share, ties to the lowest link index; -1
// when no link has unfrozen flows. Only the lowest occupied bucket is
// scanned: valid entries are filed at or below their true bucket, so
// every link not represented there has a strictly larger share than
// anything the scan keeps in it.
func (s *sim) popBottleneck() (bott int, sel float64) {
	for {
		b := s.q.lowest()
		if b < 0 {
			return -1, 0
		}
		lst := s.q.bucket[b]
		var kept int
		if s.gang != nil && len(lst) >= shardMinScan {
			kept, bott, sel = s.gang.scanBucket(lst, int32(b))
		} else {
			kept, bott, sel, s.refile = scanTile(s.ls, lst, int32(b), s.refile[:0])
			s.liftStale(int32(b), s.refile)
		}
		s.q.bucket[b] = lst[:kept]
		if bott >= 0 {
			s.q.cur = b
			return bott, sel
		}
		s.q.drop(b)
	}
}

// scanTile scans lst, bucket b's list or one worker's tile of it: it
// compacts out entries whose link moved buckets or saturated, appends
// to stale those whose share has risen past this bucket, and
// takes the exact (share, index) lexicographic minimum of the rest
// (best < 0: none kept). linkState is only read, so tiles can be
// scanned concurrently; liftStale applies the moves afterwards.
func scanTile(ls []linkState, lst []int32, b int32, stale []refile) (kept, best int, bestS float64, _ []refile) {
	best = -1
	for _, l := range lst {
		st := &ls[l]
		if st.inBucket != b || st.unfrozen == 0 {
			continue
		}
		sh := st.avail / float64(st.unfrozen)
		if tb := int32(math.Float64bits(sh) >> bShift); tb != b {
			stale = append(stale, refile{l, tb})
			continue
		}
		lst[kept] = l
		kept++
		if best < 0 || sh < bestS || (sh == bestS && int(l) < best) {
			best, bestS = int(l), sh
		}
	}
	return kept, best, bestS, stale
}

// liftStale refiles the entries a scan of bucket b found stale: their
// share rose out of b since filing (upward always — downward moves
// refile eagerly), and one refile covers every bucket the share
// crossed while the scan was elsewhere. A link can hold two entries in
// one list (a dip refile resurrected by a later rise): the first lift
// moves inBucket and the check drops the duplicate.
func (s *sim) liftStale(b int32, stale []refile) {
	for _, r := range stale {
		if st := &s.ls[r.link]; st.inBucket == b {
			st.inBucket = r.bucket
			s.q.file(r.link, r.bucket)
		}
	}
}

// freezeRound freezes the live, not yet frozen groups crossing bott at
// the share sel, folds their earliest completion into dt, and returns
// how many flows it froze with the updated dt.
//
// Pass 1 is serial at every width: it settles which groups freeze,
// their live counts, the completion-time fold and the bottleneck's
// compacted group list (finished groups dropped lazily, order kept) —
// everything whose order the result can observe. dtThr is the fold's
// skip bound (see dtSlack): only near-minimum candidates pay the
// division, and those divisions are the identical fl(rem/sel) the
// rescan computes. Pass 2 applies the bandwidth claims to the groups'
// links, over the gang when the round touches enough route entries.
func (s *sim) freezeRound(bott int, sel, dt float64) (int, float64) {
	dtThr := dt * sel * dtSlack
	round := s.roundGroups[:0]
	frozen, touches := 0, 0
	lg := s.linkGroups[bott][:0]
	for _, g := range s.linkGroups[bott] {
		gst := &s.gs[g]
		lo := gst.front
		if lo == gst.end {
			continue
		}
		lg = append(lg, g)
		if gst.frozen {
			continue
		}
		gst.frozen = true
		gst.rate = sel
		k := gst.end - lo
		frozen += int(k)
		if sel > 0 {
			if rem := s.mRemaining[lo]; rem < dtThr {
				if d := rem / sel; d < dt {
					dt = d
					dtThr = dt * sel * dtSlack
				}
			}
		}
		round = append(round, roundGroup{g, k})
		touches += len(s.routes[g])
	}
	s.linkGroups[bott] = lg
	s.roundGroups = round

	if s.gang != nil && touches >= shardMinTouches {
		s.gang.claim(sel)
		return frozen, dt
	}
	dips := s.refile[:0]
	for _, rgp := range round {
		var ws []int32
		if s.mults != nil {
			ws = s.mults[rgp.g]
		}
		dips = claimRoute(s.ls, s.routes[rgp.g], ws, sel, rgp.k, dips)
	}
	s.q.fileAll(dips)
	s.refile = dips
	return frozen, dt
}

// claimRoute is pass 2 of a freeze round for one group: it takes sel
// per live member (k of them, times ws[j] on a weighted entry) out of
// every link in links — the group's route, or one worker's links of
// it. A link whose share dipped below its filed bucket gets the new
// bucket in inBucket and is appended to dips for the caller to file:
// nothing reads the queue before the round ends.
//
// A group's k live members all freeze at sel here, exactly as the
// rescan freezes them one by one: the same-value clamped subtractions
// per route link commute with the other freezes of the round, and the
// intermediate shares are never observed.
func claimRoute(ls []linkState, links, ws []int32, sel float64, k int32, dips []refile) []refile {
	for j, l := range links {
		st := &ls[l]
		a := st.avail
		kk := k
		if ws != nil {
			// Weighted (approx) entries claim their whole share in one
			// multiply — aggregates can carry thousands of weight
			// units, and approx mode has no rescan bit pattern to keep.
			kk *= ws[j]
			a -= sel * float64(kk)
		} else {
			// The unclamped chain is monotone decreasing (sel >= 0), so
			// one clamp per segment lands on the same float64 the
			// rescan's per-step clamps do.
			for i := int32(0); i < kk; i++ {
				a -= sel
			}
		}
		if a < 0 {
			a = 0
		}
		st.avail = a
		n := st.unfrozen - kk
		if n <= 0 {
			st.unfrozen = 0
			continue
		}
		st.unfrozen = n
		// Dip filter, division- and table-free: the filed bucket's
		// floor times the live count bounds the avail below which the
		// share could have dipped out of its bucket; the dtSlack-sized
		// guard absorbs both roundings, so no genuine dip escapes. Only
		// near-floor touches divide to decide, and only confirmed dips
		// (rare: clamping or rounding moved the share down) refile.
		floor := math.Float64frombits(uint64(st.inBucket) << bShift)
		if a < floor*float64(n)*dtSlack {
			sh := a / float64(n)
			if db := int32(math.Float64bits(sh) >> bShift); db < st.inBucket {
				st.inBucket = db
				dips = append(dips, refile{l, db})
			}
		}
	}
	return dips
}

// staleRates covers the unreachable break out of the freeze rounds
// with flows still unfrozen: it falls back to their stale rates,
// exactly as the full rescan would.
func (s *sim) staleRates(dt float64) float64 {
	for _, g := range s.activeGroups {
		if gst := &s.gs[g]; !gst.frozen && gst.rate > 0 {
			if d := s.mRemaining[gst.front] / gst.rate; d < dt {
				dt = d
			}
		}
	}
	return dt
}

// advance moves the simulation dt forward to the next completion and
// retires the members that finish. The gang only drains (disjoint
// member ranges); the bookkeeping stays serial, in group order.
func (s *sim) advance(dt float64) {
	s.now += dt
	if s.u != nil {
		for _, l := range s.activeLinks {
			if s.liveOnLink[l] > 0 {
				s.u.AddBusy(int(l), dt)
			}
		}
	}
	prev := s.active
	if s.gang != nil && s.active >= shardMinFlows {
		for pos, k := range s.gang.drain(dt) {
			if k > 0 {
				s.retire(s.activeGroups[pos], k)
			}
		}
	} else {
		for _, g := range s.activeGroups {
			if k := s.drainGroup(g, dt); k > 0 {
				s.retire(g, k)
			}
		}
	}
	simPhase.Add(int64(prev - s.active))
}

// drainGroup advances every live member of g by its group rate and
// returns how many finished. All live members of a group subtract the
// identical rate*dt, so their remaining bytes keep the sorted order
// they started in and the members that finish are exactly a prefix.
func (s *sim) drainGroup(g int32, dt float64) int32 {
	gst := &s.gs[g]
	lo, hi := gst.front, gst.end
	x := gst.rate * dt
	rem := s.mRemaining
	done := lo
	for i := lo; i < hi; i++ {
		r := rem[i] - x
		rem[i] = r
		if done == i && r <= 1e-9 {
			done = i + 1
		}
	}
	return done - lo
}

// retire completes the first k live members of g at the current time.
func (s *sim) retire(g, k int32) {
	lo := s.gs[g].front
	s.gs[g].front = lo + k
	s.active -= int(k)
	if s.ft != nil {
		stamp := s.now + s.p.SendOverhead + s.p.RecvOverhead + s.p.RouteLatency
		for _, mi := range s.mMsgOf[lo : lo+k] {
			s.ft.Done[mi] = stamp
		}
	}
	for j, l := range s.routes[g] {
		if s.mults != nil {
			s.liveOnLink[l] -= k * s.mults[g][j]
		} else {
			s.liveOnLink[l] -= k
		}
	}
}

// finish adds the endpoint overheads and route latency every flow
// pays and stamps starved messages with the phase end. Approx mode
// first clamps onto the certifiable floor: pooled transit capacity can
// only be optimistic (it averages away intra-pool imbalance), so an
// approximate finish below the heaviest physical link's drain time is
// lifted onto it, completion stamps rescaled in proportion. The
// residual band above the floor is the self-measured error bound.
func (s *sim) finish(events int, info *ApproxInfo) Result {
	p, ft := s.p, s.ft
	res := Result{Time: s.now + s.overheadMax + p.RouteLatency, Completions: s.nflows, Events: events}
	if info != nil {
		oh := s.overheadMax + p.RouteLatency
		if s.now < s.lbNow && s.now > 0 {
			f := s.lbNow / s.now
			if ft != nil {
				base := p.SendOverhead + p.RecvOverhead + p.RouteLatency
				for i, d := range ft.Done {
					if t := d - base; t > 0 {
						ft.Done[i] = t*f + base
					}
				}
			}
			s.now = s.lbNow
			info.Clamped = true
		}
		info.LowerBound = s.lbNow + oh
		res.Time = s.now + oh // not the sum above: it rounds differently
		if res.Time > 0 {
			info.BoundGap = (res.Time - info.LowerBound) / res.Time
		}
	}
	if ft != nil {
		for _, gst := range s.gs {
			for _, mi := range s.mMsgOf[gst.front:gst.end] {
				ft.Done[mi] = res.Time
			}
		}
	}
	s.u.SetDuration(res.Time)
	return res
}

// member is one flow before flattening.
type member struct {
	g, msg int32
	rem    float64
}

// groupLoad is what the physical lower bound routes for one group.
type groupLoad struct {
	src, dst int32
	bytes    float64
}
