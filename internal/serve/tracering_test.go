package serve

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bgpvr/internal/trace"
)

// mkKept builds a small kept trace with nspans spans so its estimated
// size is predictable.
func mkKept(id string, status int, reason string, nspans int) *keptTrace {
	tr := trace.NewVirtual(1)
	for i := 0; i < nspans; i++ {
		tr.Rank(0).Emit(trace.PhaseRender, "render", float64(i), 1)
	}
	return &keptTrace{id: id, status: status, dur: time.Second, reason: reason,
		start: time.Unix(1, 0), tracer: tr}
}

// listIDs is the ring's IDs, newest first.
func listIDs(r *traceRing) []string {
	var ids []string
	for _, t := range r.list() {
		ids = append(ids, t.id)
	}
	return ids
}

// TestTraceRingEvictionOrderUnderBytePressure pins byte-budget
// eviction: the oldest traces leave first, exactly enough of them to
// fit the newcomer, and the stats ledger tracks entries/bytes/evictions.
func TestTraceRingEvictionOrderUnderBytePressure(t *testing.T) {
	one := estimateSize(mkKept("x", 200, reasonRand, 4))
	r := newTraceRing(3*one + one/2)
	for i := 0; i < 3; i++ {
		r.add(mkKept(fmt.Sprintf("t%d", i), 200, reasonRand, 4))
	}
	if st := r.stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("pre-pressure stats = %+v", st)
	}

	// The fourth trace overflows the budget: t0 (oldest) must go.
	r.add(mkKept("t3", 200, reasonP90, 4))
	st := r.stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("post-pressure stats = %+v, want 3 entries / 1 eviction", st)
	}
	if _, ok := r.get("t0"); ok {
		t.Error("t0 survived byte pressure; eviction is not oldest-first")
	}
	if _, ok := r.get("t3"); !ok {
		t.Error("newcomer t3 was not retained")
	}
	if ids := listIDs(r); fmt.Sprint(ids) != "[t3 t2 t1]" {
		t.Errorf("list order (newest first) = %v, want [t3 t2 t1]", ids)
	}
	if st.Bytes <= 0 || st.Bytes > st.BudgetBytes {
		t.Errorf("bytes %d outside (0, budget %d]", st.Bytes, st.BudgetBytes)
	}
	if st.ByReason[reasonRand] != 3 || st.ByReason[reasonP90] != 1 {
		t.Errorf("by-reason counts = %v", st.ByReason)
	}
}

// TestTraceRingEntryCap pins the entry cap: however small the traces,
// the ring holds maxTraces of them, the newest, and counts each one it
// pushed out as an eviction.
func TestTraceRingEntryCap(t *testing.T) {
	r := newTraceRing(8 << 20)
	for i := 0; i < maxTraces+6; i++ {
		r.add(mkKept(fmt.Sprintf("t%d", i), 200, reasonRand, 1))
	}
	st := r.stats()
	if st.Entries != maxTraces || st.Evictions != 6 {
		t.Fatalf("stats = %+v, want %d entries / 6 evictions", st, maxTraces)
	}
	var want int64
	for i := 0; i < maxTraces+6; i++ {
		_, ok := r.get(fmt.Sprintf("t%d", i))
		if i < 6 && ok {
			t.Errorf("t%d survived the entry cap", i)
		}
		if i >= 6 {
			want += estimateSize(mkKept(fmt.Sprintf("t%d", i), 200, reasonRand, 1))
		}
	}
	if st.Bytes != want {
		t.Errorf("bytes %d, want %d: the retained entries' sizes", st.Bytes, want)
	}
	if ids := listIDs(r); len(ids) != maxTraces || ids[0] != fmt.Sprintf("t%d", maxTraces+5) || ids[maxTraces-1] != "t6" {
		t.Errorf("list = %v, want t%d down to t6", ids, maxTraces+5)
	}
}

// TestTraceRingDuplicateIDReplaces pins replacement semantics:
// re-adding an ID swaps the entry without counting an eviction.
func TestTraceRingDuplicateIDReplaces(t *testing.T) {
	r := newTraceRing(8 << 20)
	r.add(mkKept("dup", 200, reasonRand, 1))
	r.add(mkKept("dup", 503, reasonError, 1))
	got, ok := r.get("dup")
	if !ok || got.status != 503 {
		t.Fatalf("get(dup) = %+v ok=%v, want the replacement (503)", got, ok)
	}
	if st := r.stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Errorf("stats after replace = %+v", st)
	}
}

// TestTraceRingOversizedTraceDropped pins the degenerate case: a trace
// larger than the entire budget never enters (and never evicts what is
// already retained).
func TestTraceRingOversizedTraceDropped(t *testing.T) {
	r := newTraceRing(1024)
	r.add(mkKept("small", 200, reasonRand, 1))
	r.add(mkKept("huge", 200, reasonSLO, 1000))
	if _, ok := r.get("huge"); ok {
		t.Error("oversized trace retained past the budget")
	}
	if _, ok := r.get("small"); !ok {
		t.Error("oversized arrival evicted the retained trace")
	}
	if st := r.stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (the dropped oversize)", st.Evictions)
	}
}

// TestTraceSamplerErrorAlwaysKept pins the first precedence rule.
func TestTraceSamplerErrorAlwaysKept(t *testing.T) {
	s := newTailSampler(0, -1) // baseline keep off
	for _, status := range []int{400, 429, 500, 503} {
		keep, reason := s.decide(status, time.Microsecond)
		if !keep || reason != reasonError {
			t.Errorf("status %d: keep=%v reason=%q, want error keep", status, keep, reason)
		}
	}
	if keep, _ := s.decide(200, time.Microsecond); keep {
		t.Error("fast 200 kept with baseline sampling off and cold window")
	}
}

// TestTraceSamplerSLOBeatsP90 pins precedence: an SLO breach reads
// "slo" even when it also exceeds the rolling p90.
func TestTraceSamplerSLOBeatsP90(t *testing.T) {
	s := newTailSampler(100*time.Millisecond, -1)
	for i := 0; i < 30; i++ {
		s.decide(200, 10*time.Millisecond)
	}
	keep, reason := s.decide(200, 500*time.Millisecond)
	if !keep || reason != reasonSLO {
		t.Errorf("SLO breach: keep=%v reason=%q, want slo", keep, reason)
	}
}

// TestTraceSamplerP90Breach pins the rolling-p90 rule with a
// deterministic latency sequence: after samplerMinCount observations,
// a clear outlier is kept as "p90" while in-distribution requests are
// not, and the window actually rolls (a regime change moves the
// threshold).
func TestTraceSamplerP90Breach(t *testing.T) {
	s := newTailSampler(0, -1)
	// Before the window has samplerMinCount observations, nothing
	// p90-gates.
	for i := 0; i < samplerMinCount-1; i++ {
		if keep, reason := s.decide(200, time.Duration(i+1)*time.Hour); keep {
			t.Fatalf("obs %d kept (%q) before samplerMinCount", i, reason)
		}
	}
	s.decide(200, 10*time.Millisecond) // the samplerMinCount-th observation
	// The window now holds 19 huge warm-up values and one 10ms: the p90
	// is huge, so a 20ms request is in-distribution.
	if keep, _ := s.decide(200, 20*time.Millisecond); keep {
		t.Error("in-distribution request kept by p90 rule")
	}
	// Refill the window with a tight 10ms regime; it must roll past the
	// warm-up values.
	for i := 0; i < samplerWindow; i++ {
		s.decide(200, 10*time.Millisecond)
	}
	keep, reason := s.decide(200, 50*time.Millisecond)
	if !keep || reason != reasonP90 {
		t.Errorf("outlier after regime change: keep=%v reason=%q, want p90", keep, reason)
	}
}

// TestTraceSamplerRandDeterministic pins the 1-in-N baseline: the
// source is seeded, so the keep pattern is reproducible and lands near
// 1/N. Every latency is the same, so the p90 rule never fires.
func TestTraceSamplerRandDeterministic(t *testing.T) {
	decide := func() []bool {
		s := newTailSampler(0, 4)
		out := make([]bool, 200)
		for i := range out {
			out[i], _ = s.decide(200, time.Millisecond)
		}
		return out
	}
	a, b := decide(), decide()
	kept := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across two samplers", i)
		}
		if a[i] {
			kept++
		}
	}
	// Mirror the sampler's own draw to pin the exact expected count.
	want := 0
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if rnd.Intn(4) == 0 {
			want++
		}
	}
	if kept != want {
		t.Errorf("kept %d of 200, want exactly %d from seed 1", kept, want)
	}
	if kept < 20 || kept > 90 {
		t.Errorf("kept %d of 200 at N=4 — far from 1-in-4", kept)
	}
}
