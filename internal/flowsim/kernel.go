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
// freeze pass reads front/end/round and writes rate for every group
// on the bottleneck's list, round after round.
type groupState struct {
	rate       float64 // members' common rate (stale until refrozen)
	front, end int32   // live members are mRemaining[front:end]
	round      int32   // the event's round that froze the group, -1 while unfrozen
}

// roundGroup is a frozen group and its live-member count at the freeze.
type roundGroup struct{ g, k int32 }

// roundRec is one freeze round of the current event: its bottleneck
// and where its groups start in sim.order.
type roundRec struct{ bott, first int32 }

// routeCSR holds every group's route — or, for a gang worker, the
// links it owns of every route — in one backing array: group g's
// entries are [off[g], off[g+1]). undo holds, per entry of the whole
// CSR, the avail its claim overwrote in the current event, so a round
// can be taken back; a worker's CSR shares it and pos says which slot
// each of its entries logs to.
type routeCSR struct {
	links []int32 // model links in approx mode
	mults []int32 // per-entry route weights; nil in exact mode
	off   []int32
	pos   []int32 // per-entry undo slot; nil on the whole CSR (the entry's own index)
	undo  []float64
}

// slots returns group g's undo slice and the per-entry slot list to
// index it with: a nil list means entry j logs to slot j.
func (r *routeCSR) slots(g int32) ([]float64, []int32) {
	lo, hi := r.off[g], r.off[g+1]
	if r.pos == nil {
		return r.undo[lo:hi], nil
	}
	return r.undo, r.pos[lo:hi]
}

// of returns group g's links and, in approx mode, their weights.
func (r *routeCSR) of(g int32) (links, ws []int32) {
	lo, hi := r.off[g], r.off[g+1]
	if r.mults != nil {
		ws = r.mults[lo:hi]
	}
	return r.links[lo:hi], ws
}

// sim is the state of one max-min simulation: built by newSim, driven
// by run, read out by finish.
//
// The active sets are sparse — the groups still in flight and the links
// they cross, both compacted in place as members complete. Flows never
// start mid-phase, so both sets only shrink; the scratch arrays stay
// full-size but only active entries are ever read or reset, and the
// event log (rounds, order, the routes' undo) is sized by what one event
// can freeze, so a simulation allocates the same slices however many
// events it runs (the bucket queue's lists aside, which grow with the
// distinct shares a run visits).
type sim struct {
	p  torus.Params
	u  *telemetry.LinkUsage // nil in approx mode
	ft *FlowTimes

	routes       routeCSR  // every group's whole route, with the event's undo log
	mRemaining   []float64 // per-member bytes left, ascending within a group
	mMsgOf       []int32   // per-member index into msgs
	gs           []groupState
	activeGroups []int32

	// The current event's allocation in freeze order: its rounds, and
	// the groups they froze. Between events it is the previous event's,
	// of which beginEvent keeps the rounds below rmin.
	rounds []roundRec
	order  []roundGroup
	rmin   int // lowest round that froze a flow retired since

	capOf        []float64 // per-link capacity; nil in exact mode (all LinkBandwidth)
	liveOnLink   []int32   // unfinished-flow count (weighted in approx mode)
	lgList       []int32   // groups crossing link l: lgList[lgOff[l]:lgEnd[l]],
	lgOff, lgEnd []int32   // finished ones dropped lazily
	ls           []linkState
	activeLinks  []int32
	q            bucketQueue
	refile       []refile // serial scan/claim refile buffer
	gang         *gang    // nil when every section runs serially

	nflows      int
	active      int     // flows not yet complete
	now         float64 // simulated time, overheads excluded
	overheadMax float64
	lbNow       float64 // approx mode: heaviest physical link's drain time
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
// transit aggregate merged into one weighted entry. Group ids follow
// first appearance in msgs, so every per-link group list is in message
// order.
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
	rt := &s.routes
	rt.off = make([]int32, 1, len(msgs)+1)
	addLink := func(l int) { rt.links = append(rt.links, int32(l)) }
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
			g = int32(len(rt.off) - 1)
			gidOf[key] = g
			if rg != nil {
				links, ws := rg.ModelRoute(m.Src, m.Dst)
				rt.links = append(rt.links, links...)
				rt.mults = append(rt.mults, ws...)
				loads = append(loads, groupLoad{src: int32(m.Src), dst: int32(m.Dst)})
			} else {
				top.Route(m.Src, m.Dst, addLink)
			}
			rt.off = append(rt.off, int32(len(rt.links)))
		}
		mem = append(mem, member{g, int32(mi), float64(m.Bytes)})
		links, ws := rt.of(g)
		if rg != nil {
			for j, l := range links {
				s.liveOnLink[l] += ws[j]
			}
			loads[g].bytes += float64(m.Bytes)
		} else {
			for _, l := range links {
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
	ngroups := len(rt.off) - 1
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
		s.gs[g].round = -1
		s.activeGroups[g] = int32(g)
	}
	// An event freezes each live group once, in at most as many rounds.
	s.rounds = make([]roundRec, 0, ngroups)
	s.order = make([]roundGroup, 0, ngroups)
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

	// The groups crossing each link, as one array: count, offset, fill
	// in group order (the order per-group appends would give).
	s.lgOff = make([]int32, nlinks)
	s.lgEnd = make([]int32, nlinks)
	for _, l := range rt.links {
		s.lgEnd[l]++
	}
	s.activeLinks = make([]int32, 0, nlinks)
	at := int32(0)
	for l, n := range s.lgEnd {
		s.lgOff[l], s.lgEnd[l] = at, at
		at += n
		if n > 0 {
			s.activeLinks = append(s.activeLinks, int32(l))
		}
	}
	s.lgList = make([]int32, len(rt.links))
	rt.undo = make([]float64, len(rt.links))
	for g := int32(0); g < int32(ngroups); g++ {
		links, _ := rt.of(g)
		for _, l := range links {
			s.lgList[s.lgEnd[l]] = g
			s.lgEnd[l]++
		}
	}

	// Every link starts the way a fully rewound event leaves it: nothing
	// claimed, every live flow unfrozen.
	s.active = s.nflows
	s.ls = make([]linkState, nlinks)
	for _, l := range s.activeLinks {
		s.ls[l] = linkState{avail: p.LinkBandwidth, unfrozen: s.liveOnLink[l]}
		if s.capOf != nil {
			s.ls[l].avail = s.capOf[l]
		}
	}
	s.q.bucket = make([][]int32, nBuckets)
	s.q.stamp = make([]int32, nBuckets)
	return s
}

// run is the event loop: while flows remain, bring the max-min fair
// rates up to date — each round freezes the flows crossing the currently
// most-contended link at its fair share — then advance to the next
// completion. It returns the number of events processed.
//
// An event costs what the last completions changed. A retired flow was
// frozen in some round r of the previous event, so it crosses none of
// the bottlenecks of rounds below r (it would have frozen there): those
// bottlenecks' (avail, unfrozen) are what they were, and every other
// link the flow crossed only lost a contender, so its share can only
// have risen — the (share, index) minimum of each round below r is the
// same link with the same bits, freezing the same groups at the same
// rate. beginEvent therefore keeps the rounds below rmin, the lowest
// such r, as they stand and takes back only the rest; the first event
// is the case of nothing to keep.
//
// The next completion time is folded into the rounds: every live group
// is frozen exactly once per event at its members' common rate, and
// rounding is monotone, so the running minimum of front-member
// remaining/share over kept and fresh freezes equals the full scan's
// minimum of remaining/rate over every flow.
func (s *sim) run() (events int) {
	for s.active > 0 {
		dt := s.freezeRest(s.beginEvent())
		events++
		if math.IsInf(dt, 1) {
			break // starved flows: cannot progress (zero bandwidth)
		}
		s.advance(dt)
	}
	return events
}

// beginEvent rewinds the previous event to the start of round rmin and
// makes it the current one. Rounds from rmin on are taken back in
// reverse: avail restored by value (it depends only on earlier rounds'
// claims, which stand), unfrozen by the claimed amount — a delta,
// because retire has since taken the finished flows out of it, and a
// saved count would bring them back. What is left unfrozen on each link
// is then exactly its live flows minus the kept groups' members. It
// also drops finished groups and idle links from the active sets (order
// preserved), files every link with unfrozen flows under its share, and
// folds the kept groups' completions, at their kept rates, into dt.
// unfrozen is how many flows the rounds from rmin on must freeze.
func (s *sim) beginEvent() (dt float64, unfrozen int) {
	if s.rmin < len(s.rounds) {
		first := s.rounds[s.rmin].first
		s.unclaim(s.order[first:])
		s.rounds, s.order = s.rounds[:s.rmin], s.order[:first]
	}

	// Groups still frozen are the kept ones. Folding them here, in group
	// order, reads gs and mRemaining front to back; the minimum does not
	// care about the order.
	dt, unfrozen = math.Inf(1), s.active
	w := 0
	for _, g := range s.activeGroups {
		st := &s.gs[g]
		if st.front == st.end {
			continue
		}
		s.activeGroups[w] = g
		w++
		if st.round >= 0 {
			dt = foldDt(dt, s.mRemaining[st.front], st.rate)
			unfrozen -= int(st.end - st.front)
		}
	}
	s.activeGroups = s.activeGroups[:w]

	s.q.reset()
	w = 0
	for _, l := range s.activeLinks {
		if s.liveOnLink[l] == 0 {
			continue
		}
		s.activeLinks[w] = l
		w++
		if st := &s.ls[l]; st.unfrozen > 0 {
			st.inBucket = int32(math.Float64bits(st.avail/float64(st.unfrozen)) >> bShift)
			s.q.file(l, st.inBucket)
		}
	}
	s.activeLinks = s.activeLinks[:w]

	if s.u != nil {
		for _, r := range s.rounds {
			s.u.AddBottleneck(int(r.bott))
		}
	}
	return dt, unfrozen
}

// unclaim unfreezes the groups of tail and undoes their claims, last
// claim first, so each link ends at the avail its earliest undone claim
// found. It stays on the caller at every width: a rewind is one pass
// of loads and stores, which a gang rendezvous costs more than it saves.
func (s *sim) unclaim(tail []roundGroup) {
	rt := &s.routes
	for i := len(tail) - 1; i >= 0; i-- {
		g, k := tail[i].g, tail[i].k
		s.gs[g].round = -1
		links, ws := rt.of(g)
		undo := rt.undo[rt.off[g]:rt.off[g+1]]
		for j := len(links) - 1; j >= 0; j-- {
			st := &s.ls[links[j]]
			st.avail = undo[j]
			if ws != nil {
				st.unfrozen += k * ws[j]
			} else {
				st.unfrozen += k
			}
		}
	}
}

// freezeRest runs the event's remaining freeze rounds — all of them
// when beginEvent kept none — and returns the time to the next
// completion. The event's counts are plain ints flushed to the obs
// counters once, here.
func (s *sim) freezeRest(dt float64, unfrozen int) float64 {
	kept, claimed := len(s.rounds), 0
	for unfrozen > 0 {
		bott, sel := s.popBottleneck()
		if bott < 0 {
			break // flows with no links (cannot happen: newSim skips them)
		}
		s.u.AddBottleneck(bott)
		var k, touches int
		k, touches, dt = s.freezeRound(bott, sel, dt)
		unfrozen -= k
		claimed += touches
	}
	if unfrozen > 0 {
		dt = s.staleRates(dt)
	}
	cSimEvents.Inc()
	cSimFreezeRounds.Add(int64(len(s.rounds)))
	cSimKeptRounds.Add(int64(kept))
	cSimFrozenFlows.Add(int64(s.active - unfrozen))
	cSimClaimedEntries.Add(int64(claimed))
	return dt
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

// foldDt folds one group's next completion — its front member, rem
// bytes from done at rate — into the running minimum dt. The guard is
// the skip bound (see dtSlack): only near-minimum candidates pay the
// division, and those divisions are the identical fl(rem/rate) the
// rescan computes.
func foldDt(dt, rem, rate float64) float64 {
	if rate > 0 && rem < dt*rate*dtSlack {
		if d := rem / rate; d < dt {
			return d
		}
	}
	return dt
}

// freezeRound freezes the live, not yet frozen groups crossing bott at
// the share sel and logs the round, folds their earliest completion
// into dt, and returns how many flows it froze, how many route entries
// that claimed, and the updated dt.
//
// Pass 1 is serial at every width: it settles which groups freeze,
// their live counts, the completion-time fold and the bottleneck's
// compacted group list (finished groups dropped lazily, order kept) —
// everything whose order the result can observe. Pass 2 applies the
// bandwidth claims to the groups' links, over the gang when the round
// touches enough route entries.
func (s *sim) freezeRound(bott int, sel, dt float64) (frozen, touches int, _ float64) {
	first := len(s.order)
	r := int32(len(s.rounds))
	s.rounds = append(s.rounds, roundRec{int32(bott), int32(first)})
	lg := s.lgList[s.lgOff[bott]:s.lgEnd[bott]]
	w := 0
	for _, g := range lg {
		gst := &s.gs[g]
		lo := gst.front
		if lo == gst.end {
			continue
		}
		lg[w] = g
		w++
		if gst.round >= 0 {
			continue
		}
		gst.round = r
		gst.rate = sel
		k := gst.end - lo
		frozen += int(k)
		dt = foldDt(dt, s.mRemaining[lo], sel)
		s.order = append(s.order, roundGroup{g, k})
		touches += int(s.routes.off[g+1] - s.routes.off[g])
	}
	s.lgEnd[bott] = s.lgOff[bott] + int32(w)
	round := s.order[first:]

	if s.gang != nil && touches >= shardMinTouches {
		s.gang.claim(round, sel)
		return frozen, touches, dt
	}
	s.refile = s.routes.claim(s.ls, round, sel, s.refile[:0])
	s.q.fileAll(s.refile)
	return frozen, touches, dt
}

// claim is pass 2 of a freeze round: for each group of the round it
// takes sel per live member (k of them, times the weight on a weighted
// entry) out of every link r holds of the group's route, logging the
// avail it overwrites. A link whose share dipped below its filed bucket
// gets the new bucket in inBucket and is appended to dips for the
// caller to file: nothing reads the queue before the round ends.
//
// A group's k live members all freeze at sel here, exactly as the
// rescan freezes them one by one: the same-value clamped subtractions
// per route link commute with the other freezes of the round, and the
// intermediate shares are never observed.
func (r *routeCSR) claim(ls []linkState, round []roundGroup, sel float64, dips []refile) []refile {
	for _, rgp := range round {
		links, ws := r.of(rgp.g)
		undo, pos := r.slots(rgp.g)
		for j, l := range links {
			st := &ls[l]
			a := st.avail
			u := j
			if pos != nil {
				u = int(pos[j])
			}
			undo[u] = a
			kk := rgp.k
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
	}
	return dips
}

// staleRates covers the unreachable break out of the freeze rounds
// with flows still unfrozen: it falls back to their stale rates,
// exactly as the full rescan would.
func (s *sim) staleRates(dt float64) float64 {
	for _, g := range s.activeGroups {
		if gst := &s.gs[g]; gst.round < 0 && gst.rate > 0 {
			if d := s.mRemaining[gst.front] / gst.rate; d < dt {
				dt = d
			}
		}
	}
	return dt
}

// advance moves the simulation dt forward to the next completion and
// retires the members that finish, which sets rmin for the next event
// (a step can retire nothing — rounding leaves its flow a sliver — and
// then the whole event is kept). The gang only drains (disjoint member
// ranges); the bookkeeping stays serial, in group order.
func (s *sim) advance(dt float64) {
	s.now += dt
	s.rmin = len(s.rounds)
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

// retire completes the first k live members of g at the current time
// and takes them off g's links: out of the live count and, ahead of the
// rewind that will give g's claim back, out of unfrozen.
func (s *sim) retire(g, k int32) {
	gst := &s.gs[g]
	lo := gst.front
	gst.front = lo + k
	s.active -= int(k)
	s.rmin = min(s.rmin, max(int(gst.round), 0))
	if s.ft != nil {
		stamp := s.now + s.p.SendOverhead + s.p.RecvOverhead + s.p.RouteLatency
		for _, mi := range s.mMsgOf[lo : lo+k] {
			s.ft.Done[mi] = stamp
		}
	}
	links, ws := s.routes.of(g)
	for j, l := range links {
		kk := k
		if ws != nil {
			kk *= ws[j]
		}
		s.liveOnLink[l] -= kk
		s.ls[l].unfrozen -= kk
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
