package mpiio

import (
	"fmt"
	"math/rand"
	"testing"

	"bgpvr/internal/grid"
)

// randomUnion draws a sorted, non-overlapping union of one of three
// shapes: a netCDF-record-like one (equal runs at a fixed period, as
// long as a default window or far shorter), one contiguous run, or runs
// of random lengths between random holes.
func randomUnion(rng *rand.Rand, shape int) []grid.Run {
	base := rng.Int63n(4096)
	switch shape {
	case 0:
		seg := 1<<12 + rng.Int63n(DefaultCBBufferSize+1<<20)
		period := seg * (1 + rng.Int63n(6))
		if period == seg {
			period += 1 + rng.Int63n(seg) // a hole, or the runs would coalesce
		}
		return periodicUnion(base, seg, period, 2+rng.Intn(60))
	case 1:
		return []grid.Run{{Offset: base, Length: 1 + rng.Int63n(64<<20)}}
	default:
		var u []grid.Run
		off := base
		for n := 2 + rng.Intn(40); len(u) < n; {
			l := 1 + rng.Int63n(512<<10)
			u = append(u, grid.Run{Offset: off, Length: l})
			off += l + 1 + rng.Int63n(2<<20)
		}
		return u
	}
}

// candidates lists the windows ChooseWindow scores for union: the
// default, then each distinct run length below it.
func candidates(union []grid.Run) []int64 {
	out := []int64{DefaultCBBufferSize}
	seen := map[int64]bool{DefaultCBBufferSize: true}
	for _, r := range union {
		if r.Length < DefaultCBBufferSize && !seen[r.Length] {
			seen[r.Length] = true
			out = append(out, r.Length)
		}
	}
	return out
}

// chooseWindowReference is ChooseWindow's rule spelled out over
// BuildPlan: each candidate's plan built and analysed in full.
func chooseWindowReference(union []grid.Run, a int) int64 {
	best := int64(DefaultCBBufferSize)
	bestSt := BuildPlan(union, Hints{CBBufferSize: best, CBNodes: a}).Stats()
	for _, c := range candidates(union)[1:] {
		st := BuildPlan(union, Hints{CBBufferSize: c, CBNodes: a}).Stats()
		if st.MeanAccess < minMeanAccess {
			continue
		}
		if st.PhysicalBytes < bestSt.PhysicalBytes ||
			st.PhysicalBytes == bestSt.PhysicalBytes && st.Accesses < bestSt.Accesses {
			best, bestSt = c, st
		}
	}
	return best
}

func TestChooseWindowProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		shape := trial % 3
		union := randomUnion(rng, shape)
		for a := 1; a <= 8; a++ {
			name := fmt.Sprintf("trial %d (shape %d, %d runs), %d aggregators", trial, shape, len(union), a)
			w := ChooseWindow(union, a)
			if w != ChooseWindow(union, a) {
				t.Fatalf("%s: not deterministic", name)
			}
			if ref := chooseWindowReference(union, a); w != ref {
				t.Fatalf("%s: window %d, the rule over BuildPlan gives %d", name, w, ref)
			}
			if len(union) == 1 && w != DefaultCBBufferSize {
				t.Fatalf("%s: one run planned %d, want the default", name, w)
			}
			chosen := BuildPlan(union, Hints{CBBufferSize: w, CBNodes: a}).Stats()
			def := BuildPlan(union, Hints{CBNodes: a}).Stats()
			if chosen.PhysicalBytes > def.PhysicalBytes {
				t.Fatalf("%s: window %d reads %d bytes, the default %d", name, w, chosen.PhysicalBytes, def.PhysicalBytes)
			}
			if w != DefaultCBBufferSize && chosen.MeanAccess < minMeanAccess {
				t.Fatalf("%s: window %d has mean access %.0f, below the floor", name, w, chosen.MeanAccess)
			}
			// The scorer's totals are BuildPlan's, candidate by candidate.
			for _, c := range candidates(union) {
				acc, bytes := walkPlan(union, c, a, nil)
				st := BuildPlan(union, Hints{CBBufferSize: c, CBNodes: a}).Stats()
				if acc != st.Accesses || bytes != st.PhysicalBytes {
					t.Fatalf("%s: window %d scored %d accesses / %d bytes, BuildPlan %d / %d",
						name, c, acc, bytes, st.Accesses, st.PhysicalBytes)
				}
			}
		}
	}
}

// The paper's case: a record variable one of five, records far below
// the default window, and the planner picks the record — at 1120^3 the
// paper's hand-tuned 5,017,600 bytes.
func TestChooseWindowPicksTheRecord(t *testing.T) {
	const rec = 1120 * 1120 * 4
	union := periodicUnion(1024, rec, 5*rec, 1120)
	for _, a := range []int{1, 8, 64, 512} {
		if w := ChooseWindow(union, a); w != rec {
			t.Errorf("%d aggregators: window %d, want the record %d", a, w, rec)
		}
	}
}

// Ties. With four runs and four aggregators every domain starts on a
// run, so the record window and the default read the same bytes in the
// same accesses, and the default, the earlier candidate, stays. With
// runs half a record apart and eight domains the record window reads
// the same bytes in more accesses (15 against 8), and the default stays
// again.
func TestChooseWindowTies(t *testing.T) {
	const rec = 100000
	for _, tc := range []struct {
		union        []grid.Run
		a            int
		moreAccesses bool
	}{
		{periodicUnion(0, rec, 5*rec, 4), 4, false},
		{periodicUnion(0, rec, rec+rec/2, 8), 8, true},
	} {
		wAcc, wBytes := walkPlan(tc.union, rec, tc.a, nil)
		dAcc, dBytes := walkPlan(tc.union, DefaultCBBufferSize, tc.a, nil)
		if wBytes != dBytes || (wAcc > dAcc) != tc.moreAccesses || wAcc < dAcc {
			t.Fatalf("%d aggregators: not the tie intended: record %d B / %d, default %d B / %d", tc.a, wBytes, wAcc, dBytes, dAcc)
		}
		if w := ChooseWindow(tc.union, tc.a); w != DefaultCBBufferSize {
			t.Errorf("%d aggregators: window %d, want the default", tc.a, w)
		}
	}
}

// A record under the floor keeps the default; so does one at the floor
// whose plan's accesses are cut short at domain ends (eight domains of
// 14.5 records each), but not with one domain, where every access is a
// whole record.
func TestChooseWindowFloor(t *testing.T) {
	small := periodicUnion(1024, 4096, 5*4096, 32)
	if w := ChooseWindow(small, 8); w != DefaultCBBufferSize {
		t.Errorf("4 KB records: window %d, want the default", w)
	}
	const rec = minMeanAccess
	union := periodicUnion(1024, rec, 5*rec, 24)
	acc, bytes := walkPlan(union, rec, 8, nil)
	if bytes >= minMeanAccess*int64(acc) {
		t.Fatalf("8 aggregators: the record plan's mean access %d is not below the floor", bytes/int64(acc))
	}
	if w := ChooseWindow(union, 8); w != DefaultCBBufferSize {
		t.Errorf("8 aggregators: window %d, want the default", w)
	}
	if w := ChooseWindow(union, 1); w != rec {
		t.Errorf("1 aggregator: window %d, want the record %d", w, rec)
	}
}

func TestChooseWindowAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for shape := 0; shape < 3; shape++ {
		union := randomUnion(rng, shape)
		if n := testing.AllocsPerRun(20, func() { ChooseWindow(union, 8) }); n != 0 {
			t.Errorf("shape %d: %v allocations a call", shape, n)
		}
	}
}
