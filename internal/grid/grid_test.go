package grid

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFactorProcs(t *testing.T) {
	cases := map[int]IVec3{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		4:  {2, 2, 1},
		8:  {2, 2, 2},
		64: {4, 4, 4},
	}
	for p, want := range cases {
		if got := FactorProcs(p); got != want {
			t.Errorf("FactorProcs(%d) = %v, want %v", p, got, want)
		}
	}
	// All powers of two up to 64K factor into a product equal to p with
	// max/min ratio <= 2 (cubic-ish).
	for p := 1; p <= 1<<16; p *= 2 {
		f := FactorProcs(p)
		if f.X*f.Y*f.Z != p {
			t.Fatalf("FactorProcs(%d) = %v does not multiply to p", p, f)
		}
		mx := max(f.X, max(f.Y, f.Z))
		mn := min(f.X, min(f.Y, f.Z))
		if mx > 2*mn {
			t.Errorf("FactorProcs(%d) = %v too skewed", p, f)
		}
	}
}

func TestFactorProcsNonPow2(t *testing.T) {
	for _, p := range []int{3, 6, 12, 100, 1000, 1331, 17} {
		f := FactorProcs(p)
		if f.X*f.Y*f.Z != p {
			t.Errorf("FactorProcs(%d) = %v does not multiply to p", p, f)
		}
	}
}

// Property: every decomposition partitions the grid exactly — blocks are
// disjoint and cover all cells.
func TestDecompPartition(t *testing.T) {
	f := func(dx, dy, dz uint8, pp uint8) bool {
		dims := IVec3{int(dx%13) + 3, int(dy%13) + 3, int(dz%13) + 3}
		p := int(pp%16) + 1
		d := NewDecomp(dims, p)
		var total int64
		for r := 0; r < d.NumBlocks(); r++ {
			e := d.BlockExtent(r)
			if e.Empty() {
				// Blocks may legitimately be empty only if the grid is
				// smaller than the process grid on some axis.
				continue
			}
			total += e.Count()
			// Disjointness against all other blocks.
			for s := r + 1; s < d.NumBlocks(); s++ {
				if !e.Intersect(d.BlockExtent(s)).Empty() {
					return false
				}
			}
		}
		return total == dims.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBlockCoordRankRoundTrip(t *testing.T) {
	d := NewDecomp(Cube(64), 24)
	for r := 0; r < d.NumBlocks(); r++ {
		if got := d.BlockRank(d.BlockCoord(r)); got != r {
			t.Fatalf("round trip rank %d -> %v -> %d", r, d.BlockCoord(r), got)
		}
	}
}

func TestGhostExtentClamped(t *testing.T) {
	d := NewDecomp(Cube(16), 8)
	whole := WholeGrid(d.Dims)
	for r := 0; r < 8; r++ {
		g := d.GhostExtent(r, 1)
		e := d.BlockExtent(r)
		if g.Intersect(whole) != g {
			t.Errorf("ghost extent %v exceeds grid", g)
		}
		if g.Intersect(e) != e {
			t.Errorf("ghost extent %v does not contain own block %v", g, e)
		}
		// Interior faces must have exactly 1 layer of ghost.
		c := d.BlockCoord(r)
		if c.X > 0 && g.Lo.X != e.Lo.X-1 {
			t.Errorf("block %d missing -X ghost", r)
		}
		if c.X == 0 && g.Lo.X != 0 {
			t.Errorf("block %d ghost extends past 0", r)
		}
	}
}

func TestAxisRangeEvenAndRemainder(t *testing.T) {
	// 10 cells over 3 parts: 4,3,3 with contiguity.
	wantLo := []int{0, 4, 7}
	wantHi := []int{4, 7, 10}
	for i := 0; i < 3; i++ {
		lo, hi := axisRange(10, 3, i)
		if lo != wantLo[i] || hi != wantHi[i] {
			t.Errorf("axisRange(10,3,%d) = (%d,%d), want (%d,%d)", i, lo, hi, wantLo[i], wantHi[i])
		}
	}
}

func TestRunsWholeGridSingleRun(t *testing.T) {
	dims := IVec3{8, 4, 2}
	runs := Runs(dims, WholeGrid(dims), 4, 100)
	if len(runs) != 1 {
		t.Fatalf("want 1 run, got %d: %v", len(runs), runs)
	}
	if runs[0] != (Run{100, 8 * 4 * 2 * 4}) {
		t.Errorf("run = %+v", runs[0])
	}
}

func TestRunsRowFragments(t *testing.T) {
	dims := IVec3{8, 4, 2}
	ext := Ext(I(2, 1, 0), I(5, 3, 2))
	runs := Runs(dims, ext, 4, 0)
	// 2 rows per z-plane * 2 planes = 4 runs of 3 elements.
	if len(runs) != 4 {
		t.Fatalf("want 4 runs, got %d: %v", len(runs), runs)
	}
	for _, r := range runs {
		if r.Length != 3*4 {
			t.Errorf("run length = %d, want 12", r.Length)
		}
	}
	if runs[0].Offset != int64((0*4+1)*8+2)*4 {
		t.Errorf("first offset = %d", runs[0].Offset)
	}
	if TotalBytes(runs) != ext.Count()*4 {
		t.Errorf("total bytes = %d, want %d", TotalBytes(runs), ext.Count()*4)
	}
}

func TestRunsFullXCoalescesPlanes(t *testing.T) {
	dims := IVec3{8, 4, 4}
	// Full X and Y, partial Z: one run spanning the z range.
	ext := Ext(I(0, 0, 1), I(8, 4, 3))
	runs := Runs(dims, ext, 4, 0)
	if len(runs) != 1 {
		t.Fatalf("want 1 coalesced run, got %v", runs)
	}
	if runs[0].Offset != 8*4*1*4 || runs[0].Length != 8*4*2*4 {
		t.Errorf("run = %+v", runs[0])
	}
}

func TestRunsEmptyAndClipped(t *testing.T) {
	dims := Cube(4)
	if Runs(dims, Ext(I(2, 2, 2), I(2, 3, 3)), 4, 0) != nil {
		t.Error("empty extent should yield nil")
	}
	// Extent poking outside the grid is clipped.
	runs := Runs(dims, Ext(I(3, 3, 3), I(9, 9, 9)), 1, 0)
	if TotalBytes(runs) != 1 {
		t.Errorf("clipped extent bytes = %d, want 1", TotalBytes(runs))
	}
}

// Property: runs cover exactly the cells of the extent — total bytes
// match and every run maps back to in-extent cells.
func TestRunsCoverageQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := IVec3{rng.Intn(10) + 1, rng.Intn(10) + 1, rng.Intn(10) + 1}
		lo := IVec3{rng.Intn(dims.X), rng.Intn(dims.Y), rng.Intn(dims.Z)}
		hi := IVec3{lo.X + 1 + rng.Intn(dims.X-lo.X), lo.Y + 1 + rng.Intn(dims.Y-lo.Y), lo.Z + 1 + rng.Intn(dims.Z-lo.Z)}
		ext := Ext(lo, hi)
		es := 1 + rng.Intn(8)
		runs := Runs(dims, ext, es, 0)
		if TotalBytes(runs) != ext.Count()*int64(es) {
			return false
		}
		// One allocation of exactly the runs, and appending the runs of
		// the array that follows in the file extends the last run only
		// when the two meet.
		if len(runs) != RunCount(dims, ext) || cap(runs) != len(runs) {
			return false
		}
		next := AppendRuns(slices.Clone(runs), dims, ext, es, dims.Count()*int64(es))
		if meets := ext == WholeGrid(dims); len(next) != 2*len(runs)-b2i(meets) {
			return false
		}
		// Mark covered elements; each must be in ext and covered once.
		covered := make(map[int64]bool)
		for _, r := range runs {
			if r.Offset%int64(es) != 0 || r.Length%int64(es) != 0 {
				return false
			}
			for e := r.Offset / int64(es); e < r.End()/int64(es); e++ {
				if covered[e] {
					return false
				}
				covered[e] = true
				z := e / (int64(dims.X) * int64(dims.Y))
				rem := e % (int64(dims.X) * int64(dims.Y))
				y, x := rem/int64(dims.X), rem%int64(dims.X)
				if !ext.Contains(IVec3{int(x), int(y), int(z)}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCoalesceRuns(t *testing.T) {
	in := []Run{{0, 10}, {10, 5}, {20, 5}, {22, 2}, {30, 1}}
	got := CoalesceRuns(in)
	want := []Run{{0, 15}, {20, 5}, {30, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if CoalesceRuns(nil) != nil {
		t.Error("nil input should give nil")
	}
}

func TestFrontToBackIsPermutation(t *testing.T) {
	d := NewDecomp(Cube(32), 27)
	for _, eye := range [][3]float64{{-100, 16, 16}, {16, 16, 16}, {200, -50, 400}} {
		ord := d.FrontToBack(eye)
		if len(ord) != 27 {
			t.Fatalf("order length %d", len(ord))
		}
		seen := make([]bool, 27)
		for _, r := range ord {
			if r < 0 || r >= 27 || seen[r] {
				t.Fatalf("order %v is not a permutation", ord)
			}
			seen[r] = true
		}
	}
}

// Property: in the front-to-back order, along each axis the slab
// distance from the eye never decreases when the other two coordinates
// are held fixed, and the first block listed contains (or is nearest to)
// the eye.
func TestFrontToBackMonotone(t *testing.T) {
	d := NewDecomp(Cube(30), 64) // 4x4x4 blocks of 7..8 cells
	eye := [3]float64{-10, 15, 35}
	ord := d.FrontToBack(eye)
	pos := make([]int, len(ord))
	for i, r := range ord {
		pos[r] = i
	}
	dist := func(r int) float64 {
		e := d.BlockExtent(r)
		var s float64
		for a := 0; a < 3; a++ {
			c := float64(e.Lo.Comp(a)+e.Hi.Comp(a)) / 2
			s += absf(c - eye[a])
		}
		return s
	}
	// A block strictly farther on every axis must come later.
	for r := 0; r < d.NumBlocks(); r++ {
		for s := 0; s < d.NumBlocks(); s++ {
			cr, cs := d.BlockCoord(r), d.BlockCoord(s)
			farther := true
			for a := 0; a < 3; a++ {
				if cr.Comp(a) != cs.Comp(a) {
					// compare axis distance
					er, es := d.BlockExtent(r), d.BlockExtent(s)
					dr := absf(float64(er.Lo.Comp(a)+er.Hi.Comp(a))/2 - eye[a])
					ds := absf(float64(es.Lo.Comp(a)+es.Hi.Comp(a))/2 - eye[a])
					if dr <= ds {
						farther = false
					}
				}
			}
			if farther && r != s && pos[r] < pos[s] {
				t.Fatalf("block %d (dist %.1f) before nearer block %d (dist %.1f)", r, dist(r), s, dist(s))
			}
		}
	}
}

func TestUpsampleIdentityFactor1(t *testing.T) {
	dims := IVec3{3, 2, 2}
	data := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	out, od := Upsample(data, dims, 1)
	if od != dims {
		t.Fatalf("dims = %v", od)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Errorf("out[%d] = %v", i, out[i])
		}
	}
}

func TestUpsamplePreservesCornersAndRange(t *testing.T) {
	dims := Cube(4)
	data := make([]float32, dims.Count())
	rng := rand.New(rand.NewSource(7))
	for i := range data {
		data[i] = rng.Float32()
	}
	out, od := Upsample(data, dims, 2)
	if od != Cube(8) {
		t.Fatalf("dims = %v", od)
	}
	// Corner preservation.
	corner := func(d []float32, dm IVec3, x, y, z int) float32 {
		return d[LinearIndex(dm, IVec3{x, y, z})]
	}
	if corner(out, od, 0, 0, 0) != corner(data, dims, 0, 0, 0) {
		t.Error("corner (0,0,0) not preserved")
	}
	if corner(out, od, 7, 7, 7) != corner(data, dims, 3, 3, 3) {
		t.Error("corner (max) not preserved")
	}
	// Interpolation stays within source min/max.
	var mn, mx float32 = 2, -1
	for _, v := range data {
		mn = min(mn, v)
		mx = max(mx, v)
	}
	for _, v := range out {
		if v < mn-1e-6 || v > mx+1e-6 {
			t.Fatalf("upsampled value %v outside [%v, %v]", v, mn, mx)
		}
	}
}

func TestUpsampleLinearFieldExact(t *testing.T) {
	// A linear ramp is reproduced exactly by trilinear interpolation.
	dims := Cube(5)
	data := make([]float32, dims.Count())
	i := 0
	for z := 0; z < 5; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				data[i] = float32(x) + 2*float32(y) + 4*float32(z)
				i++
			}
		}
	}
	out, od := Upsample(data, dims, 3)
	k := 0
	for z := 0; z < od.Z; z++ {
		for y := 0; y < od.Y; y++ {
			for x := 0; x < od.X; x++ {
				sx := float64(x) * 4 / float64(od.X-1)
				sy := float64(y) * 4 / float64(od.Y-1)
				sz := float64(z) * 4 / float64(od.Z-1)
				want := sx + 2*sy + 4*sz
				if absf(float64(out[k])-want) > 1e-4 {
					t.Fatalf("out[%d,%d,%d] = %v, want %v", x, y, z, out[k], want)
				}
				k++
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
