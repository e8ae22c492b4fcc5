package pfs

import (
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/stats"
)

func TestAggBWMonotoneSaturating(t *testing.T) {
	p := NewBGPStorage()
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		bw := p.AggBW(n)
		if bw <= prev {
			t.Fatalf("AggBW not increasing at n=%d: %v <= %v", n, bw, prev)
		}
		if bw > p.SatBW {
			t.Fatalf("AggBW(%d) = %v exceeds saturation %v", n, bw, p.SatBW)
		}
		prev = bw
	}
	// Small partitions are ION-link- or ramp-limited.
	if p.AggBW(1) > 1.5e8 {
		t.Errorf("single-ION bandwidth %v unreasonably high", p.AggBW(1))
	}
	if p.AggBW(0) != p.AggBW(1) {
		t.Error("n<1 should clamp to 1")
	}
}

func TestReadTimeComponents(t *testing.T) {
	p := NewBGPStorage()
	base := ReadJob{PhysicalBytes: 1 << 30, Accesses: 100, Aggregators: 8, IONs: 4, Procs: 256}
	t0 := p.ReadTime(base)
	if t0 <= p.OpenCost {
		t.Fatal("read cannot be faster than open")
	}
	// More bytes cost more.
	big := base
	big.PhysicalBytes *= 4
	if p.ReadTime(big) <= t0 {
		t.Error("more bytes should take longer")
	}
	// More accesses cost more; more aggregators amortize them.
	many := base
	many.Accesses = 100000
	tMany := p.ReadTime(many)
	if tMany <= t0 {
		t.Error("more accesses should take longer")
	}
	wide := many
	wide.Aggregators = 512
	if p.ReadTime(wide) >= tMany {
		t.Error("more aggregators should amortize access latency")
	}
	// More IONs speed up streaming.
	fast := base
	fast.IONs = 64
	if p.ReadTime(fast) >= t0 {
		t.Error("more IONs should stream faster")
	}
	// Metadata accesses add time.
	meta := base
	meta.MetaAccessesPerProc = 12
	if p.ReadTime(meta) <= t0 {
		t.Error("metadata reads should cost")
	}
}

// Calibration guard: the model must land near the paper's headline I/O
// readings (shape, within ~35%):
//   - 1120^3 raw (5.62e9 B) at 16K cores (64 IONs): I/O ~ 5.3 s
//   - 4480^3 raw (3.60e11 B) at 32K cores (128 IONs): I/O ~ 211 s
//   - 2240^3 raw (4.49e10 B) at 8K cores (32 IONs): I/O ~ 49 s
func TestCalibrationAgainstPaper(t *testing.T) {
	p := NewBGPStorage()
	cases := []struct {
		name  string
		job   ReadJob
		paper float64
	}{
		{"1120^3@16K", ReadJob{PhysicalBytes: 5.62e9, Accesses: 1405, Aggregators: 512, IONs: 64, Procs: 16384}, 5.3},
		{"4480^3@32K", ReadJob{PhysicalBytes: 3.60e11, Accesses: 90000, Aggregators: 1024, IONs: 128, Procs: 32768}, 211},
		{"2240^3@8K", ReadJob{PhysicalBytes: 4.49e10, Accesses: 11240, Aggregators: 256, IONs: 32, Procs: 8192}, 49.3},
	}
	for _, c := range cases {
		got := p.ReadTime(c.job)
		if got < c.paper/1.45 || got > c.paper*1.45 {
			t.Errorf("%s: modeled %.1f s, paper %.1f s (outside 45%%)", c.name, got, c.paper)
		}
	}
}

// The Fig 7 shape: raw-format bandwidth rises with core count, peaks in
// the 8K-16K range, and declines at 32K as per-process overheads grow.
func TestFig7Shape(t *testing.T) {
	p := NewBGPStorage()
	useful := int64(5.62e9)
	bw := map[int]float64{}
	for _, procs := range []int{64, 1024, 16384, 32768} {
		nodes := (procs + 3) / 4
		ions := (nodes + 63) / 64
		j := ReadJob{PhysicalBytes: useful, Accesses: 1405, Aggregators: 8 * ions, IONs: ions, Procs: procs}
		bw[procs] = float64(useful) / p.ReadTime(j)
	}
	if !(bw[64] < bw[1024] && bw[1024] < bw[16384]) {
		t.Errorf("bandwidth should rise with scale: %v", bw)
	}
	if bw[32768] >= bw[16384] {
		t.Errorf("bandwidth should dip at 32K: %v", bw)
	}
	if bw[16384] < 0.7e9 || bw[16384] > 1.4e9 {
		t.Errorf("peak bandwidth %.2e outside ~1 GB/s", bw[16384])
	}
}

func TestServerOfRoundRobin(t *testing.T) {
	p := NewBGPStorage()
	if p.ServerOf(0) != 0 || p.ServerOf(p.StripeSize-1) != 0 || p.ServerOf(p.StripeSize) != 1 {
		t.Error("striping boundaries wrong")
	}
	if p.ServerOf(p.StripeSize*int64(p.Servers)) != 0 {
		t.Error("round robin should wrap")
	}
}

func TestServerLoadsConserveAndBalance(t *testing.T) {
	p := NewBGPStorage()
	// A large contiguous read spreads evenly.
	accesses := []grid.Run{{Offset: 12345, Length: int64(p.Servers) * p.StripeSize * 3}}
	loads := p.ServerLoads(accesses)
	var sum stats.Summary
	var total int64
	for _, l := range loads {
		total += l
		sum.Add(float64(l))
	}
	if total != accesses[0].Length {
		t.Fatalf("loads sum %d != %d", total, accesses[0].Length)
	}
	if sum.Imbalance() > 1.05 {
		t.Errorf("large read imbalance %.3f", sum.Imbalance())
	}
	// A sub-stripe access lands on exactly one server.
	loads = p.ServerLoads([]grid.Run{{Offset: 100, Length: 10}})
	nz := 0
	for _, l := range loads {
		if l > 0 {
			nz++
		}
	}
	if nz != 1 {
		t.Errorf("tiny access hit %d servers", nz)
	}
}
