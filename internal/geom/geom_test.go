package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func vecAlmostEq(a, b Vec3, eps float64) bool {
	return almostEq(a.X, b.X, eps) && almostEq(a.Y, b.Y, eps) && almostEq(a.Z, b.Z, eps)
}

func TestVecBasics(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(2); got != V(2, 4, 6) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Dot(b); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rf := func() float64 { return rng.Float64()*200 - 100 }
	for i := 0; i < 500; i++ {
		a, b := V(rf(), rf(), rf()), V(rf(), rf(), rf())
		c := a.Cross(b)
		tol := 1e-9 * (1 + a.Len()*b.Len()*(a.Len()+b.Len()))
		if !almostEq(c.Dot(a), 0, tol) || !almostEq(c.Dot(b), 0, tol) {
			t.Fatalf("cross %v x %v = %v not orthogonal", a, b, c)
		}
	}
}

// Property: vector addition is commutative and Dot is bilinear in its
// first argument (checked with testing/quick's default generator).
func TestVecAlgebraQuick(t *testing.T) {
	add := func(a, b Vec3) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(add, nil); err != nil {
		t.Error(err)
	}
	sub := func(a, b Vec3) bool { return a.Sub(b) == a.Add(b.Mul(-1)) }
	if err := quick.Check(sub, nil); err != nil {
		t.Error(err)
	}
}

func TestNorm(t *testing.T) {
	if got := V(0, 0, 0).Norm(); got != V(0, 0, 0) {
		t.Errorf("Norm(0) = %v", got)
	}
	n := V(3, 4, 0).Norm()
	if !vecAlmostEq(n, V(0.6, 0.8, 0), 1e-12) {
		t.Errorf("Norm = %v", n)
	}
}

func TestCompAccessors(t *testing.T) {
	v := V(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Comp(i); got != want {
			t.Errorf("Comp(%d) = %v, want %v", i, got, want)
		}
	}
	if got := v.SetComp(1, -1); got != V(7, -1, 9) {
		t.Errorf("SetComp = %v", got)
	}
	if v != V(7, 8, 9) {
		t.Errorf("SetComp mutated receiver: %v", v)
	}
}

func TestBoxConstructionUnordered(t *testing.T) {
	b := Box(V(5, -1, 2), V(1, 3, 0))
	if b.Min != V(1, -1, 0) || b.Max != V(5, 3, 2) {
		t.Errorf("Box = %+v", b)
	}
	if b.Size() != V(4, 4, 2) {
		t.Errorf("Size = %v", b.Size())
	}
}

func TestBoxContains(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	if !b.Contains(V(0.5, 0.5, 0.5)) || !b.Contains(V(0, 0, 0)) || !b.Contains(V(1, 1, 1)) {
		t.Error("interior/boundary points should be contained")
	}
	if b.Contains(V(1.01, 0.5, 0.5)) {
		t.Error("exterior point should not be contained")
	}
}

func TestCorners(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 2, 3))
	c := b.Corners()
	seen := map[Vec3]bool{}
	for _, p := range c {
		if !b.Contains(p) {
			t.Errorf("corner %v not in box", p)
		}
		seen[p] = true
	}
	if len(seen) != 8 {
		t.Errorf("expected 8 distinct corners, got %d", len(seen))
	}
}

func TestRayIntersectBasic(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	r := Ray{Origin: V(-1, 0.5, 0.5), Dir: V(1, 0, 0)}
	t0, t1, ok := b.RayIntersect(r)
	if !ok || !almostEq(t0, 1, 1e-12) || !almostEq(t1, 2, 1e-12) {
		t.Errorf("got (%v, %v, %v)", t0, t1, ok)
	}
}

func TestRayIntersectMiss(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	r := Ray{Origin: V(-1, 2, 0.5), Dir: V(1, 0, 0)}
	if _, _, ok := b.RayIntersect(r); ok {
		t.Error("ray should miss")
	}
	// Pointing away from the box: interval clipped to t>=0 is empty.
	r = Ray{Origin: V(-1, 0.5, 0.5), Dir: V(-1, 0, 0)}
	if _, _, ok := b.RayIntersect(r); ok {
		t.Error("ray pointing away should miss")
	}
}

func TestRayIntersectInside(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	r := Ray{Origin: V(0.5, 0.5, 0.5), Dir: V(0, 0, 1)}
	t0, t1, ok := b.RayIntersect(r)
	if !ok || t0 != 0 || !almostEq(t1, 0.5, 1e-12) {
		t.Errorf("got (%v, %v, %v)", t0, t1, ok)
	}
}

func TestRayIntersectParallelSlab(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	// Dir.Y == 0, origin Y inside the slab: should hit.
	r := Ray{Origin: V(-1, 0.5, 0.5), Dir: V(1, 0, 0)}
	if _, _, ok := b.RayIntersect(r); !ok {
		t.Error("should hit")
	}
	// Dir.Y == 0, origin Y outside the slab: should miss.
	r = Ray{Origin: V(-1, 1.5, 0.5), Dir: V(1, 0, 0)}
	if _, _, ok := b.RayIntersect(r); ok {
		t.Error("should miss")
	}
}

// Property: for any random ray that reports an intersection, the entry and
// exit points lie on (or within epsilon of) the box boundary.
func TestRayIntersectPointsOnBox(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := Box(V(-1, -2, -3), V(2, 1, 4))
	grow := AABB{b.Min.Sub(V(1e-9, 1e-9, 1e-9)), b.Max.Add(V(1e-9, 1e-9, 1e-9))}
	hits := 0
	for i := 0; i < 2000; i++ {
		r := Ray{
			Origin: V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10),
			Dir:    V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1),
		}
		if r.Dir.Len() < 1e-3 {
			continue
		}
		t0, t1, ok := b.RayIntersect(r)
		if !ok {
			continue
		}
		hits++
		if t0 > t1 {
			t.Fatalf("t0 %v > t1 %v", t0, t1)
		}
		for _, tc := range []float64{t0, t1} {
			p := r.At(tc)
			if !grow.Contains(p) {
				t.Fatalf("point %v at t=%v outside box %+v", p, tc, b)
			}
		}
	}
	if hits < 50 {
		t.Fatalf("too few hits (%d) for the property to be meaningful", hits)
	}
}
