package tree

import (
	"math"
	"testing"
)

func TestDepth(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 1024: 10, 1 << 15: 15, (1 << 15) + 1: 16}
	for n, want := range cases {
		if got := Depth(n); got != want {
			t.Errorf("Depth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCollectiveMonotonicity(t *testing.T) {
	p := NewBGP()
	// More nodes never make a barrier cheaper.
	prev := 0.0
	for _, n := range []int{2, 3, 64, 4096, 1 << 15, 163840} {
		c := BarrierTime(p, n)
		if c < prev {
			t.Errorf("barrier got cheaper with more nodes: %v < %v at %d", c, prev, n)
		}
		prev = c
	}
}

func TestBarrierPureLatency(t *testing.T) {
	p := NewBGP()
	if got := BarrierTime(p, 1); got != 0 {
		t.Errorf("single-node barrier = %v", got)
	}
	if got := BarrierTime(p, 1<<15); math.Abs(got-2*15*p.HopLatency) > 1e-15 {
		t.Errorf("32K barrier = %v", got)
	}
	// BG/P full-system barrier is on the order of 5 µs.
	if got := BarrierTime(p, 1<<15); got > 10e-6 {
		t.Errorf("barrier %v unreasonably slow", got)
	}
}

func TestBGPTreeConstants(t *testing.T) {
	p := NewBGP()
	if p.LinkBandwidth != 6.8e9/8 {
		t.Errorf("tree link bandwidth = %v", p.LinkBandwidth)
	}
}

func TestUsageObserve(t *testing.T) {
	var u Usage
	u.Observe(OpBarrier, 0)
	u.Observe(OpBarrier, 0)
	u.Observe(OpReduce, 128)
	u.Observe(NumOps, 999) // out of range: ignored
	if u.Ops[OpBarrier] != 2 || u.Ops[OpReduce] != 1 {
		t.Errorf("ops = %v", u.Ops)
	}
	if u.Bytes != 128 {
		t.Errorf("bytes = %d", u.Bytes)
	}
	if u.TotalOps() != 3 {
		t.Errorf("TotalOps = %d", u.TotalOps())
	}
	var nilU *Usage
	nilU.Observe(OpBcast, 1)
	if nilU.TotalOps() != 0 {
		t.Error("nil Usage should be a no-op")
	}
	for op := Op(0); op < NumOps; op++ {
		if op.String() == "unknown" {
			t.Errorf("op %d has no name", op)
		}
	}
	if NumOps.String() != "unknown" {
		t.Errorf("sentinel String = %q", NumOps.String())
	}
}
