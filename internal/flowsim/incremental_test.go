package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/torus"
)

// freezeFromScratch computes the max-min allocation of s's current
// event the rescan's way — every link at full capacity, every live flow
// unfrozen, the lowest-share link (lowest index on a tie) found by a
// scan of all links each round — and returns each group's rate, each
// link's leftover avail and the time to the next completion. It reads
// only what an event starts from: the routes, the live members and the
// live counts.
func freezeFromScratch(s *sim) (rate, avail []float64, dt float64) {
	avail = make([]float64, len(s.ls))
	unf := make([]int32, len(s.ls))
	for l := range avail {
		avail[l] = s.p.LinkBandwidth
		if s.capOf != nil {
			avail[l] = s.capOf[l]
		}
		unf[l] = s.liveOnLink[l]
	}
	rate = make([]float64, len(s.gs))
	frozen := make([]bool, len(s.gs))
	for left := s.active; left > 0; {
		share, bott := math.Inf(1), -1
		for l := range avail {
			if unf[l] == 0 {
				continue
			}
			if sh := avail[l] / float64(unf[l]); sh < share {
				share, bott = sh, l
			}
		}
		if bott < 0 {
			break
		}
		for g := range s.gs {
			live := s.gs[g].end - s.gs[g].front
			links, ws := s.routes.of(int32(g))
			if live == 0 || frozen[g] || !slices.Contains(links, int32(bott)) {
				continue
			}
			frozen[g], rate[g] = true, share
			left -= int(live)
			for j, l := range links {
				if ws != nil {
					kk := live * ws[j]
					avail[l] = max(avail[l]-share*float64(kk), 0)
					unf[l] -= kk
					continue
				}
				for i := int32(0); i < live; i++ {
					avail[l] = max(avail[l]-share, 0)
				}
				unf[l] -= live
			}
		}
	}
	dt = math.Inf(1)
	for g, st := range s.gs {
		if st.front < st.end && rate[g] > 0 {
			dt = min(dt, s.mRemaining[st.front]/rate[g])
		}
	}
	return rate, avail, dt
}

// checkRewound verifies what beginEvent leaves: the kept groups are
// whole and frozen, everything else is not, and each link's unfrozen is
// its live flows minus the kept groups' live members crossing it.
func checkRewound(t *testing.T, s *sim, ev int) {
	t.Helper()
	want := slices.Clone(s.liveOnLink)
	kept := make([]bool, len(s.gs))
	for i, rgp := range s.order {
		st := s.gs[rgp.g]
		if live := st.end - st.front; live != rgp.k || live == 0 {
			t.Fatalf("event %d: kept group %d has %d live members, froze with %d", ev, rgp.g, live, rgp.k)
		}
		r := int(st.round)
		if r < 0 || r >= len(s.rounds) || int(s.rounds[r].first) > i {
			t.Fatalf("event %d: kept group %d at order %d carries round %d of %d", ev, rgp.g, i, r, len(s.rounds))
		}
		kept[rgp.g] = true
		links, ws := s.routes.of(rgp.g)
		for j, l := range links {
			if ws != nil {
				want[l] -= rgp.k * ws[j]
			} else {
				want[l] -= rgp.k
			}
		}
	}
	for g, st := range s.gs {
		if !kept[g] && st.front < st.end && st.round >= 0 {
			t.Fatalf("event %d: group %d is not in the kept prefix but still frozen (round %d)", ev, g, st.round)
		}
	}
	for l, st := range s.ls {
		if st.unfrozen != want[l] {
			t.Fatalf("event %d: link %d unfrozen %d after the rewind, live minus kept is %d", ev, l, st.unfrozen, want[l])
		}
	}
}

// checkFrozen verifies a finished event against the from-scratch freeze
// of the same event: rates, frozen flags, every live link's avail and
// the time step, bit for bit.
func checkFrozen(t *testing.T, s *sim, ev int, dt float64) {
	t.Helper()
	rate, avail, wantDt := freezeFromScratch(s)
	for g, st := range s.gs {
		if st.front == st.end {
			continue
		}
		if st.round < 0 || st.rate != rate[g] {
			t.Fatalf("event %d: group %d round %d rate %v, from scratch %v", ev, g, st.round, st.rate, rate[g])
		}
	}
	for l, st := range s.ls {
		if s.liveOnLink[l] > 0 && (st.avail != avail[l] || st.unfrozen != 0) {
			t.Fatalf("event %d: link %d avail %v unfrozen %d, from scratch %v and 0", ev, l, st.avail, st.unfrozen, avail[l])
		}
	}
	if dt != wantDt {
		t.Fatalf("event %d: time step %v, from scratch %v", ev, dt, wantDt)
	}
}

// checkedStats is what runChecked saw of the incremental path.
type checkedStats struct {
	events, idle       int // idle: events whose step retired nothing
	rounds, keptRounds int
}

// runChecked is sim.run with the state checks between the phases.
func runChecked(t *testing.T, s *sim) (st checkedStats) {
	t.Helper()
	for s.active > 0 {
		dt, unfrozen := s.beginEvent()
		checkRewound(t, s, st.events)
		st.keptRounds += len(s.rounds)
		dt = s.freezeRest(dt, unfrozen)
		checkFrozen(t, s, st.events, dt)
		st.rounds += len(s.rounds)
		st.events++
		if math.IsInf(dt, 1) {
			break
		}
		before := s.active
		s.advance(dt)
		if s.active == before {
			st.idle++
		}
	}
	return st
}

// TestEventStateMatchesScratch drives the event loop one phase at a
// time and checks, at every event, the rewound state and the finished
// allocation against a from-scratch freeze — over random phases and
// over the shapes random sizes rarely produce: shares that tie on every
// round, groups that retire a few members at a time, a step that
// retires nothing, and weighted routes. Each runs serially and with
// every gang section forced on, and must end on the entry point's
// result.
func TestEventStateMatchesScratch(t *testing.T) {
	p := params()
	type phase struct {
		name string
		top  torus.Topology
		msgs []torus.Message
		rg   *torus.Regions
		idle bool // some step must retire nothing
	}
	var phases []phase
	for ti, top := range []torus.Topology{torus.NewTopology(64), {Dims: grid.I(8, 1, 1)}, {Dims: grid.I(4, 2, 3)}} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(ti)))
			phases = append(phases, phase{name: fmt.Sprintf("random/top%d/seed%d", ti, seed), top: top,
				msgs: randomMsgs(rng, top.Nodes(), 30+rng.Intn(120))})
		}
	}
	// Every flow the same size on a small torus: whole sets of links
	// share one share value round after round, the lowest index wins.
	rng := rand.New(rand.NewSource(7))
	small := torus.Topology{Dims: grid.I(3, 3, 2)}
	ties := make([]torus.Message, 150)
	for i := range ties {
		ties[i] = torus.Message{Src: rng.Intn(18), Dst: rng.Intn(18), Bytes: 1 << 16}
	}
	phases = append(phases, phase{name: "ties", top: small, msgs: ties})
	// A few endpoint pairs with many members in a handful of sizes: a
	// completion retires part of a group, and the rest stays frozen in
	// place.
	var partial []torus.Message
	for i := 0; i < 240; i++ {
		pair := i % 12
		partial = append(partial, torus.Message{Src: pair, Dst: (pair*5 + 3) % 24, Bytes: int64(4096 * (1 + i%7))})
	}
	phases = append(phases, phase{name: "partial", top: torus.Topology{Dims: grid.I(4, 2, 3)}, msgs: partial})
	// TestSingleFlowLinkSpeed's flow: its one step leaves a sliver above
	// the completion threshold, so the next event has nothing to redo.
	phases = append(phases, phase{name: "sliver", top: torus.NewTopology(8), idle: true,
		msgs: []torus.Message{{Src: 0, Dst: 1, Bytes: 64 << 20}, {Src: 2, Dst: 3, Bytes: 96 << 20}, {Src: 2, Dst: 1, Bytes: 80 << 20}}})
	// Weighted route entries: the clustered approximation with endpoint
	// aggregation, as SimulateOpt builds it.
	big := torus.NewTopology(512)
	rng = rand.New(rand.NewSource(11))
	phases = append(phases, phase{name: "weighted", top: big, rg: torus.NewRegions(big, 4),
		msgs: randomMsgs(rng, big.Nodes(), 300)})

	for _, ph := range phases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/w%d", ph.name, workers), func(t *testing.T) {
				var info *ApproxInfo
				if ph.rg != nil {
					info = &ApproxInfo{}
				}
				want := simulateFlex(ph.top, p, ph.msgs, nil, nil, 1, ph.rg, info)
				s := newSim(ph.top, p, ph.msgs, nil, nil, ph.rg)
				if workers > 1 {
					forceSharding(t)
					s.gang = newGang(s, workers)
					defer s.gang.Close()
				}
				st := runChecked(t, s)
				if got := s.finish(st.events, info); got != want {
					t.Errorf("checked run %+v, entry point %+v", got, want)
				}
				if ph.idle && st.idle == 0 {
					t.Errorf("no step of %d retired nothing", st.events)
				}
				if st.events > 1 && st.keptRounds == 0 {
					t.Errorf("%d events kept none of %d rounds", st.events, st.rounds)
				}
			})
		}
	}
}

// TestAllocsIndependentOfEvents pins that the event log is paid for in
// the build phase: one phase run with equal sizes (one event) and with
// every size different (an event per flow) allocates the same number of
// objects. The flows are single and disjoint so that both runs touch
// one share bucket — the bucket queue's lists are the one thing that
// grows with the shares a run visits.
func TestAllocsIndependentOfEvents(t *testing.T) {
	top := torus.Topology{Dims: grid.I(64, 1, 1)}
	p := params()
	equal := make([]torus.Message, 32)
	spread := make([]torus.Message, 32)
	for i := range equal {
		equal[i] = torus.Message{Src: 2 * i, Dst: 2*i + 1, Bytes: 1 << 20}
		spread[i] = torus.Message{Src: 2 * i, Dst: 2*i + 1, Bytes: 1<<20 + int64(i)<<12}
	}
	few, many := Simulate(top, p, equal).Events, Simulate(top, p, spread).Events
	if few != 1 || many < len(spread) {
		t.Fatalf("events %d and %d, want 1 and at least %d", few, many, len(spread))
	}
	a := testing.AllocsPerRun(10, func() { Simulate(top, p, equal) })
	b := testing.AllocsPerRun(10, func() { Simulate(top, p, spread) })
	if a != b {
		t.Errorf("%d-event run allocates %v objects, %d-event run %v", few, a, many, b)
	}
}
