package render

import (
	"math/rand"
	"sync"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

// cellRange returns the scalar min/max of the macrocell containing p;
// ok is false outside the grid.
func cellRange(g *MinMaxGrid, p geom.Vec3) (lo, hi float32, ok bool) {
	ci := g.cellOf(p)
	if ci < 0 {
		return 0, 0, false
	}
	return g.mins[ci], g.maxs[ci], true
}

// Property: every trilinear sample's value lies within its macrocell's
// [min, max] range — the invariant that makes skipping safe.
func TestMinMaxBounds(t *testing.T) {
	dims := grid.Cube(20)
	sn := volume.Supernova{Seed: 11, Time: 0.3}
	f := sn.GenerateFull(volume.VarVelocityX, dims)
	for _, cellSize := range []int{2, 4, 7} {
		g := BuildMinMax(f, cellSize)
		rng := rand.New(rand.NewSource(int64(cellSize)))
		for i := 0; i < 3000; i++ {
			p := geom.V(rng.Float64()*19, rng.Float64()*19, rng.Float64()*19)
			v, ok := f.Sample(p)
			if !ok {
				continue
			}
			lo, hi, ok := cellRange(g, p)
			if !ok {
				t.Fatalf("point %v not covered by macrocell grid", p)
			}
			if v < float64(lo)-1e-6 || v > float64(hi)+1e-6 {
				t.Fatalf("cellSize=%d: sample %v = %v outside cell range [%v, %v]",
					cellSize, p, v, lo, hi)
			}
		}
	}
}

func TestMinMaxPartialExtent(t *testing.T) {
	dims := grid.Cube(16)
	sn := volume.Supernova{Seed: 12, Time: 0.6}
	ext := grid.Ext(grid.I(3, 4, 5), grid.I(12, 13, 14))
	f := sn.Generate(volume.VarDensity, dims, ext)
	g := BuildMinMax(f, 3)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p := geom.V(3+rng.Float64()*8, 4+rng.Float64()*8, 5+rng.Float64()*8)
		v, ok := f.Sample(p)
		if !ok {
			continue
		}
		lo, hi, ok := cellRange(g, p)
		if !ok || v < float64(lo)-1e-6 || v > float64(hi)+1e-6 {
			t.Fatalf("partial extent: sample %v = %v vs [%v, %v] ok=%v", p, v, lo, hi, ok)
		}
	}
	// Points outside the extent are not covered.
	if _, _, ok := cellRange(g, geom.V(0, 0, 0)); ok {
		t.Error("point outside extent covered")
	}
}

func TestMaxOpacityInExact(t *testing.T) {
	tf := volume.NewTransfer(
		volume.TransferPoint{V: 0.0, A: 0},
		volume.TransferPoint{V: 0.5, A: 1}, // a narrow spike
		volume.TransferPoint{V: 0.51, A: 0},
		volume.TransferPoint{V: 1.0, A: 0},
	)
	// An interval straddling the spike must see it even though its
	// endpoints are transparent.
	if got := tf.MaxOpacityIn(0.4, 0.6); got != 1 {
		t.Errorf("spike missed: MaxOpacityIn = %v", got)
	}
	if got := tf.MaxOpacityIn(0.6, 0.9); got != 0 {
		t.Errorf("transparent interval reports %v", got)
	}
	// Reversed arguments behave.
	if got := tf.MaxOpacityIn(0.6, 0.4); got != 1 {
		t.Errorf("reversed interval = %v", got)
	}
}

// Skipping must be lossless: the image with SkipEmptySpace is
// bit-identical and the sample count is not larger.
func TestSkipEmptySpaceLossless(t *testing.T) {
	dims := grid.Cube(24)
	sn := volume.Supernova{Seed: 13, Time: 1.3}
	f := sn.GenerateFull(volume.VarVelocityX, dims)
	tf := volume.SupernovaTransfer()
	cam := centeredPersp(24, 40, 40)
	base, nBase := RenderFull(f, cam, tf, Config{Step: 0.6})
	skip, nSkip := RenderFull(f, cam, tf, Config{Step: 0.6, SkipEmptySpace: true, MacrocellSize: 4})
	for i := range base.Pix {
		if base.Pix[i] != skip.Pix[i] {
			t.Fatalf("pixel %d differs with skipping: %v vs %v", i, base.Pix[i], skip.Pix[i])
		}
	}
	if nSkip > nBase {
		t.Errorf("skipping increased samples: %d > %d", nSkip, nBase)
	}
	if nSkip == nBase {
		t.Logf("note: no samples skipped (transfer function everywhere visible?)")
	}
}

// A field with a genuinely empty region must see real savings.
func TestSkipEmptySpaceSaves(t *testing.T) {
	dims := grid.Cube(32)
	f := volume.NewField(dims, grid.WholeGrid(dims))
	// Only a small bright box in one corner; everything else is 0.
	f.Fill(func(x, y, z int) float32 {
		if x < 8 && y < 8 && z < 8 {
			return 1
		}
		return 0
	})
	tf := volume.GrayRampTransfer(0.5) // zero value -> zero opacity
	cam := centeredOrtho(32, 48, 48)
	_, nBase := RenderFull(f, cam, tf, Config{Step: 1})
	img2, nSkip := RenderFull(f, cam, tf, Config{Step: 1, SkipEmptySpace: true, MacrocellSize: 4})
	if nSkip >= nBase/2 {
		t.Errorf("expected >2x sample savings: %d vs %d", nSkip, nBase)
	}
	base, _ := RenderFull(f, cam, tf, Config{Step: 1})
	for i := range base.Pix {
		if base.Pix[i] != img2.Pix[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}

func TestRenderBlockWithSkipping(t *testing.T) {
	dims := grid.Cube(16)
	sn := volume.Supernova{Seed: 14, Time: 0.2}
	d := grid.NewDecomp(dims, 8)
	tf := volume.SupernovaTransfer()
	cam := centeredOrtho(16, 24, 24)
	for r := 0; r < 8; r++ {
		fld := sn.Generate(volume.VarVelocityX, dims, d.GhostExtent(r, 1))
		plain := RenderBlock(fld, d.BlockExtent(r), cam, tf, Config{Step: 0.9})
		skip := RenderBlock(fld, d.BlockExtent(r), cam, tf, Config{Step: 0.9, SkipEmptySpace: true, MacrocellSize: 4})
		for i := range plain.Pix {
			if plain.Pix[i] != skip.Pix[i] {
				t.Fatalf("block %d pixel %d differs", r, i)
			}
		}
	}
}

// countingMaskCache is a minimal MaskCache for tests.
type countingMaskCache struct {
	mu           sync.Mutex
	m            map[*volume.Field]*OpacityMask
	hits, misses int
}

func (c *countingMaskCache) Get(f *volume.Field, build func() *OpacityMask) *OpacityMask {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[*volume.Field]*OpacityMask{}
	}
	if mk, ok := c.m[f]; ok {
		c.hits++
		return mk
	}
	c.misses++
	mk := build()
	c.m[f] = mk
	return mk
}

// TestMaskCacheReuse pins Config.MaskCache: the second render of the
// same field hits instead of rebuilding, the image stays bit-identical
// to the uncached render, and a config without SkipEmptySpace never
// touches the cache.
func TestMaskCacheReuse(t *testing.T) {
	dims := grid.Cube(24)
	sn := volume.Supernova{Seed: 13, Time: 1.3}
	f := sn.GenerateFull(volume.VarVelocityX, dims)
	tf := volume.SupernovaTransfer()
	cam := centeredPersp(24, 40, 40)
	cfg := Config{Step: 0.6, SkipEmptySpace: true, MacrocellSize: 4}
	base, _ := RenderFull(f, cam, tf, cfg)

	cache := &countingMaskCache{}
	cfg.MaskCache = cache
	for pass := 0; pass < 2; pass++ {
		got, _ := RenderFull(f, cam, tf, cfg)
		for i := range base.Pix {
			if base.Pix[i] != got.Pix[i] {
				t.Fatalf("pass %d: pixel %d differs with mask cache", pass, i)
			}
		}
	}
	if cache.misses != 1 || cache.hits != 1 {
		t.Errorf("mask cache: %d misses %d hits, want 1/1", cache.misses, cache.hits)
	}

	off := Config{Step: 0.6, MaskCache: cache}
	RenderFull(f, cam, tf, off)
	if cache.misses != 1 || cache.hits != 1 {
		t.Errorf("SkipEmptySpace off touched the cache: %d misses %d hits", cache.misses, cache.hits)
	}
}
