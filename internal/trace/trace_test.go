package trace

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRanks drives many goroutine ranks emitting spans and
// counters at once — the exact usage pattern of comm.World.Run — and
// checks the aggregated event and counter totals. Run under -race in
// CI.
func TestConcurrentRanks(t *testing.T) {
	const ranks, spansPerRank = 16, 50
	tr := New(ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := tr.Rank(r)
			for i := 0; i < spansPerRank; i++ {
				sp := h.Begin(PhaseRender, "work")
				h.Add(CounterSamples, 3)
				sp.End()
			}
			h.Add(CounterMessages, int64(r))
		}(r)
	}
	wg.Wait()

	ev := tr.Events()
	if len(ev) != ranks*spansPerRank || tr.Len() != len(ev) {
		t.Fatalf("got %d events (Len %d), want %d", len(ev), tr.Len(), ranks*spansPerRank)
	}
	for i := 1; i < len(ev); i++ {
		a, b := ev[i-1], ev[i]
		if b.Rank < a.Rank || (b.Rank == a.Rank && b.Start < a.Start) {
			t.Fatalf("events not ordered at %d: %+v then %+v", i, a, b)
		}
	}
	tot := tr.Totals()
	if want := int64(ranks * spansPerRank * 3); tot[CounterSamples] != want {
		t.Errorf("samples total = %d, want %d", tot[CounterSamples], want)
	}
	if want := int64(ranks * (ranks - 1) / 2); tot[CounterMessages] != want {
		t.Errorf("messages total = %d, want %d", tot[CounterMessages], want)
	}
}

// TestNilSafety checks every entry point on nil receivers.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Size() != 0 || tr.Rank(0) != nil || tr.Events() != nil || tr.Len() != 0 {
		t.Fatal("nil Tracer must behave as empty")
	}
	if tot := tr.Totals(); tot != ([NumCounters]int64{}) {
		t.Fatal("nil Tracer totals must be zero")
	}
	var r *Rank
	sp := r.Begin(PhaseIO, "x")
	sp.End()
	r.Emit(PhaseIO, "x", 0, 1)
	r.Add(CounterMessages, 5)
	b := tr.Breakdown()
	if b.Total() != 0 {
		t.Fatal("nil Tracer breakdown must be empty")
	}
	_ = b.Table()
	// Out-of-range rank handles are nil, not panics.
	real := New(2)
	if real.Rank(-1) != nil || real.Rank(2) != nil {
		t.Fatal("out-of-range Rank must be nil")
	}
}

// TestNoopZeroAlloc pins the acceptance criterion: with tracing off
// (nil handles), the instrumented pattern — begin a span, bump
// counters, end the span — allocates nothing.
func TestNoopZeroAlloc(t *testing.T) {
	var tr *Tracer
	r := tr.Rank(0) // nil
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Begin(PhaseComposite, "round")
		r.Add(CounterMessages, 1)
		r.Add(CounterBytesSent, 4096)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op tracing allocated %.1f times per run, want 0", allocs)
	}
}

// TestBreakdownNesting checks that a span inside another span of the
// same phase (a recv wait inside a barrier) is excluded from the phase
// sum, while a different-phase nesting (comm inside io) counts in both
// phases.
func TestBreakdownNesting(t *testing.T) {
	tr := New(1)
	r := tr.Rank(0)

	outer := r.Begin(PhaseComm, "barrier")
	inner := r.Begin(PhaseComm, "recv")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	io := r.Begin(PhaseIO, "read")
	comm := r.Begin(PhaseComm, "alltoall")
	time.Sleep(time.Millisecond)
	comm.End()
	io.End()

	var nested, top int
	for _, e := range tr.Events() {
		if e.Nested {
			nested++
		} else {
			top++
		}
	}
	if nested != 1 || top != 3 {
		t.Fatalf("got %d nested / %d top events, want 1 / 3", nested, top)
	}

	b := tr.Breakdown()
	if b.PerRank[PhaseComm].N != 1 {
		t.Errorf("comm phase has %d observations, want 1 (barrier+alltoall on one rank)", b.PerRank[PhaseComm].N)
	}
	// The comm total must equal barrier + alltoall, not include recv
	// twice: both top-level comm spans sum into the single per-rank
	// observation, and the io span covers the second comm span.
	if b.PerRank[PhaseIO].Mean() <= 0 {
		t.Error("io phase missing from breakdown")
	}
	if b.Total() <= 0 {
		t.Error("total must be positive")
	}
}

// TestVirtualBreakdownTable lays out a deterministic virtual frame and
// checks the rendered Fig-5-style table.
func TestVirtualBreakdownTable(t *testing.T) {
	tr := NewVirtual(2)
	for r := 0; r < 2; r++ {
		h := tr.Rank(r)
		h.Emit(PhaseIO, "io", 0, 6)
		h.Emit(PhaseRender, "render", 6, 3)
		h.Emit(PhaseComposite, "composite", 9, 1)
		h.Add(CounterAccesses, 10)
	}
	b := tr.Breakdown()
	if got := b.Total(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("total = %v, want 10", got)
	}
	table := b.Table()
	for _, want := range []string{"io", "render", "composite", "60.0%", "30.0%", "10.0%", "accesses=20", "2 ranks"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestActiveTracingOverhead sanity-checks that active tracing stays
// cheap: span recording amortizes to a handful of allocations driven
// by the event slice growth, not per-call garbage.
func TestActiveTracingOverhead(t *testing.T) {
	tr := New(1)
	r := tr.Rank(0)
	// Warm the slice so growth reallocations do not dominate.
	for i := 0; i < 4096; i++ {
		sp := r.Begin(PhaseComm, "warm")
		sp.End()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Begin(PhaseComm, "hot")
		r.Add(CounterMessages, 1)
		sp.End()
	})
	// Amortized slice doubling can still trigger occasionally; allow
	// a fraction of an allocation per run but not one-per-call.
	if allocs > 0.5 {
		t.Fatalf("active tracing allocated %.2f times per span, want amortized < 0.5", allocs)
	}
}
