package scratch

import (
	"math"
	"sync"
	"testing"
)

func TestClassesCoverEveryLength(t *testing.T) {
	for c := 0; c < nClasses; c++ {
		size := classSize(c)
		if c > 0 && size <= classSize(c-1) {
			t.Fatalf("class %d (%d) does not grow past class %d (%d)", c, size, c-1, classSize(c-1))
		}
		for _, n := range []int{size, size + 1, classSize(min(c+1, nClasses-1)) - 1} {
			if n < size {
				continue
			}
			if got := classFloor(n); got != c && classSize(got) > n {
				t.Errorf("classFloor(%d) = %d of size %d, larger than the length", n, got, classSize(got))
			}
		}
		if got := classFloor(size); got != c {
			t.Errorf("classFloor(%d) = %d, want %d", size, got, c)
		}
	}
}

func TestGetLengthsAndSlack(t *testing.T) {
	var p Pool[byte]
	for _, n := range []int{0, 1, minLen - 1, minLen, minLen + 1, 1000, 1 << 20, 1<<20 + 8, classSize(nClasses - 1), classSize(nClasses-1) + 1} {
		s := p.Get(n)
		if len(s) != n {
			t.Fatalf("Get(%d) has length %d", n, len(s))
		}
		if n >= minLen && 4*cap(s) > 5*n+4 {
			t.Errorf("Get(%d) has capacity %d, more than a quarter over", n, cap(s))
		}
		p.Put(s)
	}
}

// A released buffer comes back to a request its capacity covers, and a
// foreign slice (never taken from the pool) may be released too.
func TestPutThenGetReuses(t *testing.T) {
	var p Pool[int32]
	own := p.Get(5000)
	own[0] = 42
	p.Put(own)
	foreign := make([]int32, 3000)
	foreign[0] = 43
	p.Put(foreign)
	// The class floors of 5000's capacity and of 3000.
	for _, c := range []struct{ n, want int32 }{{4800, 42}, {2560, 43}} {
		if s := p.Get(int(c.n)); s[0] != c.want {
			t.Errorf("Get(%d) starts with %d, want the released buffer's %d", c.n, s[0], c.want)
		}
	}
}

// A burst of releases larger than the ceiling keeps at most the ceiling
// idle and drops the rest; what is kept still comes back.
func TestIdleBytesStayUnderTheCeiling(t *testing.T) {
	var p Pool[uint32]
	const n = 1 << 20 // 4 MB buffers
	held := make([][]uint32, 0, maxIdle/(4*n)+8)
	for len(held) < cap(held) {
		held = append(held, p.Get(n))
	}
	for _, s := range held {
		p.Put(s)
		if p.idle > maxIdle {
			t.Fatalf("%d bytes idle, ceiling %d", p.idle, maxIdle)
		}
	}
	if want := maxIdle / (4 * n) * 4 * n; p.idle != want {
		t.Errorf("%d bytes idle after the burst, want %d (the ceiling's worth)", p.idle, want)
	}
	for i := 0; i < maxIdle/(4*n); i++ {
		p.Get(n)
	}
	if p.idle != 0 {
		t.Errorf("%d bytes idle after taking back every kept buffer, want 0", p.idle)
	}
}

func TestPoisonFillsReleasedBuffers(t *testing.T) {
	defer Poison(Poison(true))
	p := Pool[float32]{Poison: float32(math.NaN())}
	s := p.Get(1000)
	for i := range s {
		s[i] = 1
	}
	p.Put(s)
	for i, v := range s[:cap(s)] {
		if v == v {
			t.Fatalf("element %d of a released buffer is %v, want NaN", i, v)
		}
	}
	Poison(false)
	s = make([]float32, 1000)
	p.Put(s)
	if s[0] != 0 {
		t.Error("poisoning off still filled a released buffer")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var p Pool[uint64]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := p.Get(300 + 37*((g+i)%50))
				for j := range s {
					s[j] = uint64(g)
				}
				for _, v := range s {
					if v != uint64(g) {
						t.Errorf("goroutine %d read %d from a buffer it owns", g, v)
						return
					}
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}

func TestGetPutPairAllocatesNothing(t *testing.T) {
	var p Pool[byte]
	p.Put(p.Get(1 << 16))
	if a := testing.AllocsPerRun(1000, func() { p.Put(p.Get(1 << 16)) }); a != 0 {
		t.Errorf("a get/put pair allocates %v objects in steady state", a)
	}
}

// BenchmarkGetPut is the recycler's whole cost to a user: one buffer
// taken and released (0 allocs/op in steady state).
func BenchmarkGetPut(b *testing.B) {
	var p Pool[byte]
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.Put(p.Get(1 << 16))
		}
	})
}
