package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/vfile"
)

// periodicUnion builds a netCDF-record-like union: nseg segments of
// segLen bytes, period bytes apart, starting at base.
func periodicUnion(base, segLen, period int64, nseg int) []grid.Run {
	var u []grid.Run
	for i := 0; i < nseg; i++ {
		u = append(u, grid.Run{Offset: base + int64(i)*period, Length: segLen})
	}
	return u
}

func TestBuildPlanContiguous(t *testing.T) {
	union := []grid.Run{{Offset: 100, Length: 10 << 20}}
	p := BuildPlan(union, Hints{CBBufferSize: 1 << 20, CBNodes: 4})
	st := p.Stats()
	if st.UsefulBytes != 10<<20 {
		t.Fatalf("useful = %d", st.UsefulBytes)
	}
	if d := st.Density(); d < 0.999 {
		t.Errorf("contiguous density = %v, want ~1", d)
	}
	if len(p.Domains) != 4 {
		t.Errorf("domains = %d", len(p.Domains))
	}
	// Physical accesses cover exactly the span.
	sorted := append([]grid.Run(nil), p.Accesses...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	cov := grid.CoalesceRuns(sorted)
	if len(cov) != 1 || cov[0] != union[0] {
		t.Errorf("coverage = %v", cov)
	}
}

func TestBuildPlanEmpty(t *testing.T) {
	p := BuildPlan(nil, Hints{})
	if len(p.Accesses) != 0 || p.UsefulBytes != 0 {
		t.Errorf("empty plan = %+v", p)
	}
	if p.Stats().Density() != 0 {
		t.Error("empty density should be 0")
	}
}

// The paper's Fig 9/10 mechanism: with one variable of five needed,
// untuned windows read most of the file span; windows tuned to the
// record size read about twice the useful bytes; the density ordering is
// untuned < tuned < contiguous.
func TestBuildPlanRecordInterleavingDensities(t *testing.T) {
	seg := int64(1120 * 1120 * 4 / 100) // scaled-down record (~50 KB)
	period := 5 * seg
	nseg := 200
	union := periodicUnion(337, seg, period, nseg) // odd base: header phase

	untuned := BuildPlan(union, Hints{CBBufferSize: 3*seg + seg/3, CBNodes: 8}).Stats()
	tuned := BuildPlan(union, Hints{CBBufferSize: seg, CBNodes: 8}).Stats()
	contig := BuildPlan([]grid.Run{{Offset: 337, Length: seg * int64(nseg)}},
		Hints{CBBufferSize: 3 * seg, CBNodes: 8}).Stats()

	if !(untuned.Density() < tuned.Density() && tuned.Density() < contig.Density()) {
		t.Fatalf("density ordering violated: untuned=%.3f tuned=%.3f contig=%.3f",
			untuned.Density(), tuned.Density(), contig.Density())
	}
	// Untuned reads the bulk of the span (density near 1/5 for 1-of-5
	// interleaving); tuned lands near 1/2.
	if untuned.Density() > 0.35 {
		t.Errorf("untuned density %.3f too good", untuned.Density())
	}
	if tuned.Density() < 0.4 || tuned.Density() > 0.75 {
		t.Errorf("tuned density %.3f outside [0.4, 0.75]", tuned.Density())
	}
	if contig.Density() < 0.99 {
		t.Errorf("contiguous density %.3f", contig.Density())
	}
	// Tuning also reduces the physical volume by more than 2x.
	if tuned.PhysicalBytes*2 > untuned.PhysicalBytes {
		t.Errorf("tuning saved too little: %d vs %d", tuned.PhysicalBytes, untuned.PhysicalBytes)
	}
}

func TestBuildPlanWindowAccessesBounded(t *testing.T) {
	union := periodicUnion(0, 1000, 5000, 50)
	h := Hints{CBBufferSize: 1000, CBNodes: 4}
	p := BuildPlan(union, h)
	for _, a := range p.Accesses {
		if a.Length > h.CBBufferSize {
			t.Errorf("access %v exceeds window", a)
		}
		if a.Length <= 0 {
			t.Errorf("non-positive access %v", a)
		}
	}
	if len(p.PerAggAccesses) != len(p.Domains) {
		t.Errorf("per-agg accounting mismatch")
	}
	sum := 0
	for _, n := range p.PerAggAccesses {
		sum += n
	}
	if sum != len(p.Accesses) {
		t.Errorf("per-agg sum %d != %d", sum, len(p.Accesses))
	}
}

func TestAggRankSpread(t *testing.T) {
	p := 64
	a := 8
	seen := map[int]bool{}
	for i := 0; i < a; i++ {
		r := AggRank(i, a, p)
		if r < 0 || r >= p || seen[r] {
			t.Fatalf("aggregator ranks not distinct/valid: %d", r)
		}
		seen[r] = true
	}
	if AggRank(0, a, p) != 0 || AggRank(4, 8, 64) != 32 {
		t.Error("spread wrong")
	}
}

// randomFile builds a deterministic pseudo-random data file.
func randomFile(n int64, seed int64) *vfile.MemFile {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return &vfile.MemFile{Data: b}
}

// directBytes extracts the concatenated run bytes straight from the file.
func directBytes(f *vfile.MemFile, runs []grid.Run) []byte {
	var out []byte
	for _, r := range runs {
		out = append(out, f.Data[r.Offset:r.End()]...)
	}
	return out
}

func TestCollectiveReadMatchesDirect(t *testing.T) {
	file := randomFile(1<<16, 1)
	for _, p := range []int{1, 2, 5, 8} {
		for _, hints := range []Hints{
			{CBBufferSize: 512, CBNodes: 1},
			{CBBufferSize: 1 << 12, CBNodes: 3},
			{CBBufferSize: 100, CBNodes: 8},
		} {
			rng := rand.New(rand.NewSource(int64(p)*100 + hints.CBBufferSize))
			reqs := make([][]grid.Run, p)
			for r := range reqs {
				// Random sorted non-overlapping runs.
				off := int64(rng.Intn(2000))
				for off < int64(len(file.Data))-10 && len(reqs[r]) < 20 {
					l := int64(rng.Intn(500) + 1)
					if off+l > int64(len(file.Data)) {
						l = int64(len(file.Data)) - off
					}
					reqs[r] = append(reqs[r], grid.Run{Offset: off, Length: l})
					off += l + int64(rng.Intn(3000))
				}
			}
			results := make([][]byte, p)
			w := comm.NewWorld(p)
			err := w.Run(func(c *comm.Comm) error {
				got, err := CollectiveRead(c, file, reqs[c.Rank()], hints)
				results[c.Rank()] = got
				return err
			})
			if err != nil {
				t.Fatalf("p=%d hints=%+v: %v", p, hints, err)
			}
			for r := range reqs {
				want := directBytes(file, reqs[r])
				if !bytes.Equal(results[r], want) {
					t.Fatalf("p=%d hints=%+v rank %d: got %d bytes, want %d (content mismatch=%v)",
						p, hints, r, len(results[r]), len(want), !bytes.Equal(results[r], want))
				}
			}
		}
	}
}

func TestCollectiveReadOverlappingRequests(t *testing.T) {
	// Two ranks request overlapping ranges; both must get full copies.
	file := randomFile(4096, 2)
	reqs := [][]grid.Run{
		{{Offset: 0, Length: 2048}},
		{{Offset: 1024, Length: 2048}},
		{{Offset: 500, Length: 100}, {Offset: 3000, Length: 10}},
	}
	results := make([][]byte, 3)
	w := comm.NewWorld(3)
	err := w.Run(func(c *comm.Comm) error {
		got, err := CollectiveRead(c, file, reqs[c.Rank()], Hints{CBBufferSize: 700, CBNodes: 2})
		results[c.Rank()] = got
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range reqs {
		if !bytes.Equal(results[r], directBytes(file, reqs[r])) {
			t.Errorf("rank %d mismatch", r)
		}
	}
}

func TestCollectiveReadEmptyRank(t *testing.T) {
	file := randomFile(1024, 3)
	reqs := [][]grid.Run{
		{{Offset: 10, Length: 100}},
		nil, // this rank wants nothing
	}
	results := make([][]byte, 2)
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) error {
		got, err := CollectiveRead(c, file, reqs[c.Rank()], Hints{CBBufferSize: 64, CBNodes: 2})
		results[c.Rank()] = got
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results[0], directBytes(file, reqs[0])) || len(results[1]) != 0 {
		t.Error("empty-rank collective read wrong")
	}
}

func TestCollectiveReadAllEmpty(t *testing.T) {
	file := randomFile(64, 4)
	w := comm.NewWorld(3)
	err := w.Run(func(c *comm.Comm) error {
		got, err := CollectiveRead(c, file, nil, Hints{CBNodes: 2})
		if err != nil || got != nil {
			return fmt.Errorf("got %v, %v", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The executed accesses must equal the planned accesses for the same
// union — the property that lets model mode plan without executing.
func TestCollectiveReadMatchesPlan(t *testing.T) {
	file := randomFile(1<<15, 5)
	// Interleaved per-rank requests covering a periodic union.
	union := periodicUnion(100, 600, 3000, 10)
	p := 4
	reqs := make([][]grid.Run, p)
	for i, u := range union {
		// Split each segment among ranks.
		part := u.Length / int64(p)
		for r := 0; r < p; r++ {
			lo := u.Offset + int64(r)*part
			l := part
			if r == p-1 {
				l = u.End() - lo
			}
			reqs[r] = append(reqs[r], grid.Run{Offset: lo, Length: l})
		}
		_ = i
	}
	h := Hints{CBBufferSize: 1024, CBNodes: 3}
	traced := vfile.NewTraced(file)
	w := comm.NewWorld(p)
	err := w.Run(func(c *comm.Comm) error {
		_, err := CollectiveRead(c, traced, reqs[c.Rank()], h)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := traced.Log.Accesses()
	want := BuildPlan(union, h).Accesses
	sort.Slice(got, func(i, j int) bool { return got[i].Offset < got[j].Offset })
	sort.Slice(want, func(i, j int) bool { return want[i].Offset < want[j].Offset })
	if len(got) != len(want) {
		t.Fatalf("executed %d accesses, planned %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d: executed %v, planned %v", i, got[i], want[i])
		}
	}
}

func TestIndependentReadExactAndSieved(t *testing.T) {
	file := randomFile(8192, 6)
	runs := []grid.Run{{Offset: 0, Length: 100}, {Offset: 150, Length: 100}, {Offset: 4000, Length: 50}}
	want := directBytes(file, runs)

	exact := vfile.NewTraced(file)
	got, err := IndependentRead(exact, runs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("exact read mismatch")
	}
	if n := len(exact.Log.Accesses()); n != 3 {
		t.Errorf("exact accesses = %d", n)
	}

	sieved := vfile.NewTraced(file)
	got, err = IndependentRead(sieved, runs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("sieved read mismatch")
	}
	acc := sieved.Log.Accesses()
	if len(acc) != 2 {
		t.Errorf("sieved accesses = %d, want 2 (first two runs merged)", len(acc))
	}
	st := iotrace.Analyze(acc, runs)
	if st.PhysicalBytes != 100+150+50 {
		t.Errorf("sieved physical = %d", st.PhysicalBytes)
	}
}

func TestIndependentReadEmpty(t *testing.T) {
	file := randomFile(16, 7)
	got, err := IndependentRead(file, nil, 100)
	if err != nil || len(got) != 0 {
		t.Errorf("empty read = %v, %v", got, err)
	}
}

// discard counts the bytes written to it.
type discard struct{ n int64 }

func (d *discard) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// readTwice runs two collective reads, one after the other in one
// world, of an n-byte contiguous union cut into runLen-byte runs dealt
// round-robin to p ranks, and returns what each allocated: the first
// finds whatever earlier tests left in the buffer pool, the second at
// least the first's buffers.
func readTwice(t *testing.T, p int, n, runLen int64, h Hints) (bytes, objects [2]uint64) {
	t.Helper()
	file := randomFile(n, 6)
	reqs := make([][]grid.Run, p)
	for off := int64(0); off < n; off += runLen {
		r := int(off/runLen) % p
		reqs[r] = append(reqs[r], grid.Run{Offset: off, Length: min(runLen, n-off)})
	}
	var at [3]runtime.MemStats
	err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
		for pass := 0; ; pass++ {
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&at[pass])
			}
			c.Barrier()
			if pass == 2 {
				return nil
			}
			var got discard
			if err := CollectiveReadTo(c, file, reqs[c.Rank()], h, &got); err != nil {
				return err
			}
			if want := grid.TotalBytes(reqs[c.Rank()]); got.n != want {
				return fmt.Errorf("rank %d: %d bytes delivered, want %d", c.Rank(), got.n, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bytes {
		bytes[i] = at[i+1].TotalAlloc - at[i].TotalAlloc
		objects[i] = at[i+1].Mallocs - at[i].Mallocs
	}
	return bytes, objects
}

// What a collective read of an n-byte union allocates. The first call
// adds at most the aggregators' buffers, min(window, domain) each and so
// n in all — not a default 16 MB window apiece, 128 MB here. In the
// steady state the buffers come from the pool and what is left is the
// reply messages (the useful bytes, once), the request tables and a
// fixed number of small objects: no concatenated result, nothing per
// run.
func TestCollectiveReadAllocation(t *testing.T) {
	const p, n = 8, 1 << 20
	for _, h := range []Hints{{CBNodes: p}, {CBBufferSize: 1 << 14, CBNodes: 3}} {
		// 4 KB runs: the request tables are 16 bytes a run, 0.4 % of n.
		bytes, few := readTwice(t, p, n, 1<<12, h)
		const steady = n + n/4 + 32<<10
		if bytes[0] > n+steady || bytes[1] > steady {
			t.Errorf("%+v: a %d-byte union allocated %d bytes, then %d; want at most %d, then %d",
				h, n, bytes[0], bytes[1], n+steady, steady)
		}
		// Four times the runs, the same objects: the comm runtime's
		// mailbox appends vary a little with scheduling, hence the slack.
		_, many := readTwice(t, p, n, 1<<10, h)
		if many[1] > few[1]+few[1]/4+64 {
			t.Errorf("%+v: %d objects for 1024 runs, %d for 256: allocation grows with the runs", h, many[1], few[1])
		}
		t.Logf("%+v: %d then %d bytes, %d / %d objects", h, bytes[0], bytes[1], few[1], many[1])
	}
}
