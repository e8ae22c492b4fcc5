package render

import (
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

func testVolume(n int) *volume.Field {
	sn := volume.Supernova{Seed: 3, Time: 0.9}
	return sn.GenerateFull(volume.VarVelocityX, grid.Cube(n))
}

func centeredOrtho(n, w, h int) *Ortho {
	c := float64(n-1) / 2
	return NewOrtho(geom.V(c, c, c), geom.V(0.3, -0.2, -1), geom.V(0, 1, 0), float64(n)*1.8, float64(n)*1.8, w, h)
}

func centeredPersp(n, w, h int) *Persp {
	c := float64(n-1) / 2
	eye := geom.V(c+float64(n)*1.2, c-float64(n)*0.7, c+float64(n)*1.5)
	return NewPersp(eye, geom.V(c, c, c), geom.V(0, 1, 0), 40, w, h)
}

func TestOrthoRaysParallelAndUnit(t *testing.T) {
	cam := centeredOrtho(16, 32, 32)
	r0 := cam.Ray(0.5, 0.5)
	r1 := cam.Ray(31.5, 20.5)
	if math.Abs(r0.Dir.Len()-1) > 1e-12 || math.Abs(r1.Dir.Len()-1) > 1e-12 {
		t.Error("ortho ray dirs must be unit")
	}
	if r0.Dir.Sub(r1.Dir).Len() > 1e-12 {
		t.Error("ortho rays must be parallel")
	}
}

func TestOrthoProjectRayInverse(t *testing.T) {
	cam := centeredOrtho(16, 64, 48)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		px, py := rng.Float64()*64, rng.Float64()*48
		ray := cam.Ray(px, py)
		// Any point on the ray projects back to the pixel.
		p := ray.At(rng.Float64() * 100)
		gx, gy, ok := cam.Project(p)
		if !ok || math.Abs(gx-px) > 1e-9 || math.Abs(gy-py) > 1e-9 {
			t.Fatalf("project(ray(%v,%v)) = (%v,%v,%v)", px, py, gx, gy, ok)
		}
	}
}

func TestPerspProjectRayInverse(t *testing.T) {
	cam := centeredPersp(16, 40, 40)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		px, py := rng.Float64()*40, rng.Float64()*40
		ray := cam.Ray(px, py)
		p := ray.At(1 + rng.Float64()*50)
		gx, gy, ok := cam.Project(p)
		if !ok || math.Abs(gx-px) > 1e-6 || math.Abs(gy-py) > 1e-6 {
			t.Fatalf("project(ray(%v,%v)) = (%v,%v,%v)", px, py, gx, gy, ok)
		}
	}
}

func TestPerspRaysOriginAtEye(t *testing.T) {
	cam := centeredPersp(16, 32, 32)
	r := cam.Ray(5, 7)
	if r.Origin != cam.Eye() {
		t.Error("perspective rays must start at the eye")
	}
	if math.Abs(r.Dir.Len()-1) > 1e-12 {
		t.Error("perspective ray dirs must be unit")
	}
	// Points behind the eye do not project.
	behind := cam.Eye().Add(r.Dir.Mul(-5))
	if _, _, ok := cam.Project(behind); ok {
		t.Error("point behind the eye projected")
	}
}

func TestProjectedRectContainsBlockPoints(t *testing.T) {
	dims := grid.Cube(20)
	d := grid.NewDecomp(dims, 8)
	rng := rand.New(rand.NewSource(3))
	for _, cam := range []Camera{centeredOrtho(20, 50, 50), centeredPersp(20, 50, 50)} {
		for r := 0; r < 8; r++ {
			ext := d.BlockExtent(r)
			rect := ProjectedRect(cam, ext)
			for i := 0; i < 100; i++ {
				p := geom.V(
					float64(ext.Lo.X)+rng.Float64()*float64(ext.Hi.X-ext.Lo.X),
					float64(ext.Lo.Y)+rng.Float64()*float64(ext.Hi.Y-ext.Lo.Y),
					float64(ext.Lo.Z)+rng.Float64()*float64(ext.Hi.Z-ext.Lo.Z),
				)
				px, py, ok := cam.Project(p)
				if !ok {
					continue
				}
				ix, iy := int(px), int(py)
				if ix < 0 || ix >= 50 || iy < 0 || iy >= 50 {
					continue // outside the image entirely
				}
				if ix < rect.X0 || ix >= rect.X1 || iy < rect.Y0 || iy >= rect.Y1 {
					t.Fatalf("block %d point projects to (%d,%d) outside rect %v", r, ix, iy, rect)
				}
			}
		}
	}
}

func TestRenderFullTransparentOnZeroOpacity(t *testing.T) {
	f := testVolume(12)
	tf := volume.NewTransfer(volume.TransferPoint{V: 0, A: 0}, volume.TransferPoint{V: 1, A: 0})
	cam := centeredOrtho(12, 24, 24)
	out, samples := RenderFull(f, cam, tf, Config{Step: 1})
	if samples == 0 {
		t.Fatal("no samples taken")
	}
	for _, p := range out.Pix {
		if p.A != 0 || p.R != 0 {
			t.Fatal("zero-opacity transfer should give a transparent image")
		}
	}
}

func TestRenderFullOpaqueCenter(t *testing.T) {
	n := 16
	f := volume.NewField(grid.Cube(n), grid.WholeGrid(grid.Cube(n)))
	f.Fill(func(x, y, z int) float32 { return 1 })
	tf := volume.GrayRampTransfer(0.6)
	cam := centeredOrtho(n, 32, 32)
	out, _ := RenderFull(f, cam, tf, Config{Step: 1})
	c := out.At(16, 16)
	if c.A < 0.9 {
		t.Errorf("center alpha = %v, want nearly opaque", c.A)
	}
	corner := out.At(0, 0)
	if corner.A != 0 {
		t.Errorf("corner alpha = %v, want 0 (outside volume)", corner.A)
	}
}

func TestEarlyTerminationApproximatesAndSaves(t *testing.T) {
	f := testVolume(20)
	tf := volume.SupernovaTransfer()
	cam := centeredPersp(20, 30, 30)
	exact, nExact := RenderFull(f, cam, tf, Config{Step: 0.5})
	fast, nFast := RenderFull(f, cam, tf, Config{Step: 0.5, EarlyTerminationAlpha: 0.999})
	if nFast > nExact {
		t.Errorf("early termination took more samples: %d > %d", nFast, nExact)
	}
	var maxDiff float64
	for i := range exact.Pix {
		d := math.Abs(float64(exact.Pix[i].A - fast.Pix[i].A))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 2e-3 {
		t.Errorf("early termination error %v too large", maxDiff)
	}
}

func TestSubimageAt(t *testing.T) {
	f := testVolume(12)
	tf := volume.SupernovaTransfer()
	cam := centeredOrtho(12, 24, 24)
	own := grid.Ext(grid.I(0, 0, 0), grid.I(12, 12, 12))
	sub := RenderBlock(f, own, cam, tf, Config{Step: 1})
	if sub.Rect.Empty() || sub.Samples == 0 {
		t.Fatal("whole-volume block should render something")
	}
	// At() addresses absolute coordinates.
	x, y := sub.Rect.X0, sub.Rect.Y0
	if sub.At(x, y) != sub.Pix[0] {
		t.Error("At() addressing wrong")
	}
}

func TestRenderBlockEmptyWhenOffscreen(t *testing.T) {
	// A camera window that looks away from the volume yields an empty
	// or fully transparent subimage.
	dims := grid.Cube(8)
	f := volume.NewField(dims, grid.WholeGrid(dims))
	f.Fill(func(x, y, z int) float32 { return 1 })
	cam := NewOrtho(geom.V(1000, 1000, 1000), geom.V(0, 0, -1), geom.V(0, 1, 0), 8, 8, 16, 16)
	sub := RenderBlock(f, grid.WholeGrid(dims), cam, volume.GrayRampTransfer(1), Config{Step: 1})
	for _, p := range sub.Pix {
		if p.A != 0 {
			t.Fatal("off-screen block rendered pixels")
		}
	}
}
