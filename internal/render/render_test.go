package render

import (
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
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

// neverStoppingCast is referenceCast without its stop: every sample of
// the ray goes over the pixel. It fails t if the opacity ever exceeds 1.
func neverStoppingCast(t *testing.T, j *castJob, f *volume.Field, ray geom.Ray, k0, k1 int64) img.RGBA {
	t.Helper()
	var acc img.RGBA
	for k := k0; k <= k1; k++ {
		if s := referenceSample(j, f, ray, k); s != (img.RGBA{}) {
			if acc = img.Over(acc, s); acc.A > 1 {
				t.Fatalf("ray %+v: opacity %v above 1 at sample %d", ray, acc.A, k)
			}
		}
	}
	return acc
}

// A ray stops where its float32 opacity reaches exactly 1, and the stop
// changes no bit: on every ray of a perspective and an orthographic view,
// shaded and not, at two steps, the cast's pixel is that of a loop that
// takes every sample. The stop saves samples on ortho-96-512, the golden
// scene of the frame-render workload.
func TestStopAtOpacityOneIsExact(t *testing.T) {
	const n = 32
	f := testVolume(n)
	box := f.Bounds()
	for _, shaded := range []bool{false, true} {
		var rays, stopped int
		for _, tf := range []*volume.Transfer{volume.SupernovaTransfer(), opaqueTransfer()} {
			for _, step := range []float64{1, 0.5} {
				j := castJob{plan: newCastPlan([]*volume.Field{f}, nil, Config{Step: step, Shade: Shading{Enabled: shaded}}), tf: tf}
				var seg int
				for _, cam := range []Camera{centeredPersp(n, 40, 40), centeredOrtho(n, 40, 40)} {
					for y := 0; y < 40; y++ {
						for x := 0; x < 40; x++ {
							ray := cam.Ray(float64(x)+0.5, float64(y)+0.5)
							t0, t1, ok := box.RayIntersect(ray)
							if !ok {
								continue
							}
							k0, k1 := j.plan.trim(ray, t0, t1)
							got, taken := j.cast(ray, k0, k1, &seg)
							if want := neverStoppingCast(t, &j, f, ray, k0, k1); !samePixel(got, want) {
								t.Fatalf("shaded %v step %v ray %+v: cast %+v, every sample %+v", shaded, step, ray, got, want)
							}
							rays++
							if taken < k1-k0+1 {
								stopped++
							}
						}
					}
				}
			}
		}
		if rays < 5000 || stopped < 1000 || rays-stopped < 1000 {
			t.Errorf("shaded %v: %d of %d rays stopped: the test is not testing", shaded, stopped, rays)
		}
	}

	sc := goldenScenes[0]
	if sc.name != "ortho-96-512" {
		t.Fatalf("golden scene 0 is %s", sc.name)
	}
	full := volume.Supernova{Seed: 1530, Time: 1.1}.GenerateFull(volume.VarVelocityX, sc.dims())
	cam := sc.cam(sc.n, sc.w, sc.h)
	_, samples := RenderFull(full, cam, sc.tf, sc.cfg)
	pl := newCastPlan([]*volume.Field{full}, nil, sc.cfg)
	var every int64
	for y := 0; y < sc.h; y++ {
		for x := 0; x < sc.w; x++ {
			ray := cam.Ray(float64(x)+0.5, float64(y)+0.5)
			if t0, t1, ok := full.Bounds().RayIntersect(ray); ok {
				k0, k1 := pl.trim(ray, t0, t1)
				every += max(0, k1-k0+1)
			}
		}
	}
	if samples >= every {
		t.Errorf("%s: the cast took %d samples, every sample of every ray is %d", sc.name, samples, every)
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
