package render

import (
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

func shadedConfig() Config {
	return Config{Step: 0.8, Shade: Shading{Enabled: true, LightDir: geom.V(-1, -1, -0.5)}}
}

func TestShadingChangesImageKeepsAlpha(t *testing.T) {
	dims := grid.Cube(20)
	sn := volume.Supernova{Seed: 17, Time: 0.9}
	f := sn.GenerateFull(volume.VarVelocityX, dims)
	tf := volume.SupernovaTransfer()
	cam := centeredPersp(20, 32, 32)
	plain, _ := RenderFull(f, cam, tf, Config{Step: 0.8})
	shaded, _ := RenderFull(f, cam, tf, shadedConfig())
	var colorDiff int
	for i := range plain.Pix {
		if plain.Pix[i].A != shaded.Pix[i].A {
			t.Fatalf("pixel %d: shading changed alpha %v -> %v", i, plain.Pix[i].A, shaded.Pix[i].A)
		}
		if plain.Pix[i] != shaded.Pix[i] {
			colorDiff++
		}
		p := shaded.Pix[i]
		for _, c := range []float32{p.R, p.G, p.B} {
			if c < 0 || c > p.A+1e-5 {
				t.Fatalf("pixel %d: shaded color %v violates premultiplied bounds (a=%v)", i, c, p.A)
			}
		}
	}
	if colorDiff == 0 {
		t.Error("shading changed nothing")
	}
}

// The central invariant survives shading: parallel block rendering with
// one ghost layer matches the serial shaded image exactly.
func TestShadedParallelMatchesSerial(t *testing.T) {
	dims := grid.Cube(18)
	sn := volume.Supernova{Seed: 18, Time: 0.4}
	full := sn.GenerateFull(volume.VarVelocityX, dims)
	tf := volume.SupernovaTransfer()
	cfg := shadedConfig()
	cam := centeredOrtho(18, 30, 30)
	ref, _ := RenderFull(full, cam, tf, cfg)

	// Render every block with ghost data, composite front-to-back by
	// hand, and compare with the serial shaded image.
	d := grid.NewDecomp(dims, 8)
	eye := cam.Eye()
	order := d.FrontToBack([3]float64{eye.X, eye.Y, eye.Z})
	out := make([]struct{ r, g, b, a float32 }, 30*30)
	for _, r := range order {
		own := d.BlockExtent(r)
		blk := sn.Generate(volume.VarVelocityX, dims, d.GhostExtent(r, GhostLayersFor(cfg)))
		sub := RenderBlock(blk, own, cam, tf, cfg)
		for y := sub.Rect.Y0; y < sub.Rect.Y1; y++ {
			for x := sub.Rect.X0; x < sub.Rect.X1; x++ {
				b := sub.At(x, y)
				a := &out[y*30+x]
				tt := 1 - a.a
				a.r += tt * b.R
				a.g += tt * b.G
				a.b += tt * b.B
				a.a += tt * b.A
			}
		}
	}
	for i, want := range ref.Pix {
		got := out[i]
		if absf32(got.r-want.R) > 2e-5 || absf32(got.a-want.A) > 2e-5 {
			t.Fatalf("pixel %d: shaded parallel (%v,%v) vs serial (%v,%v)", i, got.r, got.a, want.R, want.A)
		}
	}
}

func absf32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestShaderDefaults(t *testing.T) {
	if newShader(Shading{}, geom.V(1, 1, 1)) != nil {
		t.Error("disabled shading should yield nil shader")
	}
	sh := newShader(Shading{Enabled: true}, geom.V(9, 9, 9))
	if sh == nil || sh.ambient != 0.3 || sh.diffuse != 0.7 {
		t.Errorf("defaults wrong: %+v", sh)
	}
	// Flat field: neutral intensity everywhere.
	dims := grid.Cube(6)
	f := volume.NewField(dims, grid.WholeGrid(dims))
	f.Fill(func(x, y, z int) float32 { return 0.5 })
	vol := f.Sampler()
	i := sh.intensity(&vol, geom.V(2.5, 2.5, 2.5))
	if absf64(i-(0.3+0.7*0.5)) > 1e-9 {
		t.Errorf("flat-field intensity = %v", i)
	}
}

func absf64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
