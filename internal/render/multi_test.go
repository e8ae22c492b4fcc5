package render

import (
	"math"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

func multiFields(dims grid.IVec3, ext grid.Extent) []*volume.Field {
	sn := volume.Supernova{Seed: 29, Time: 0.5}
	return []*volume.Field{
		sn.Generate(volume.VarVelocityX, dims, ext),
		sn.Generate(volume.VarDensity, dims, ext),
	}
}

// Parallel multivariate rendering matches the serial reference.
func TestMultiParallelMatchesSerial(t *testing.T) {
	dims := grid.Cube(18)
	cls := ModulatedClassifier(volume.SupernovaTransfer(), 0.3, 0.8)
	cfg := Config{Step: 0.7}
	cam := centeredOrtho(18, 28, 28)
	ref, refSamples := RenderFullMulti(multiFields(dims, grid.WholeGrid(dims)), cam, cls, cfg)
	if refSamples == 0 {
		t.Fatal("no samples")
	}

	d := grid.NewDecomp(dims, 8)
	eye := cam.Eye()
	order := d.FrontToBack([3]float64{eye.X, eye.Y, eye.Z})
	out := img.New(28, 28)
	for _, r := range order {
		own := d.BlockExtent(r)
		sub := RenderBlockMulti(multiFields(dims, d.GhostExtent(r, 1)), own, cam, cls, cfg)
		for y := sub.Rect.Y0; y < sub.Rect.Y1; y++ {
			for x := sub.Rect.X0; x < sub.Rect.X1; x++ {
				b := sub.At(x, y)
				a := out.At(x, y)
				tt := 1 - a.A
				out.Set(x, y, img.RGBA{R: a.R + tt*b.R, G: a.G + tt*b.G, B: a.B + tt*b.B, A: a.A + tt*b.A})
			}
		}
	}
	if diff := img.MaxDiff(out, ref); diff > 2e-5 {
		t.Errorf("multivariate parallel differs from serial by %v", diff)
	}
}

// Modulation by a constant-1 secondary equals single-field rendering.
func TestMultiDegeneratesToSingle(t *testing.T) {
	dims := grid.Cube(14)
	sn := volume.Supernova{Seed: 30, Time: 0.2}
	primary := sn.GenerateFull(volume.VarVelocityX, dims)
	ones := volume.NewField(dims, grid.WholeGrid(dims))
	ones.Fill(func(x, y, z int) float32 { return 1 })
	tf := volume.SupernovaTransfer()
	cfg := Config{Step: 0.9}
	cam := centeredPersp(14, 20, 20)

	single, _ := RenderFull(primary, cam, tf, cfg)
	multi, _ := RenderFullMulti([]*volume.Field{primary, ones}, cam,
		ModulatedClassifier(tf, 0, 1), cfg)
	if d := img.MaxDiff(single, multi); d > 1e-6 {
		t.Errorf("constant modulation differs from single-field by %v", d)
	}
}

func TestModulatedClassifierClamping(t *testing.T) {
	tf := volume.GrayRampTransfer(0.8)
	cls := ModulatedClassifier(tf, 0.2, 0.6)
	base := tf.Classify(1, 1)
	// Below lo: erased.
	if px := cls.modulate(base, 0.1); px != (img.RGBA{}) {
		t.Errorf("below-lo = %v", px)
	}
	// A missing (NaN) value in either field: erased, like below lo.
	if px := cls.modulate(base, math.NaN()); px != (img.RGBA{}) {
		t.Errorf("NaN modulator = %v", px)
	}
	if px := cls.modulate(tf.Classify(math.NaN(), 1), 0.9); px != (img.RGBA{}) {
		t.Errorf("NaN primary = %v", px)
	}
	// Above hi: full strength.
	if full := cls.modulate(base, 0.9); full != base {
		t.Errorf("above-hi = %v, want %v", full, base)
	}
	// Midpoint: half strength.
	half := cls.modulate(base, 0.4)
	if absf32(half.A-base.A/2) > 1e-6 {
		t.Errorf("midpoint alpha = %v, want %v", half.A, base.A/2)
	}
	// A single field: passthrough, the single-field render bit for bit.
	dims := grid.Cube(12)
	f := volume.Supernova{Seed: 3, Time: 0.5}.GenerateFull(volume.VarVelocityX, dims)
	cam, cfg := centeredPersp(12, 16, 16), Config{Step: 0.7}
	single, n := RenderFull(f, cam, tf, cfg)
	multi, m := RenderFullMulti([]*volume.Field{f}, cam, cls, cfg)
	for i := range single.Pix {
		if !samePixel(single.Pix[i], multi.Pix[i]) || n != m {
			t.Fatalf("single-field passthrough: pixel %d %v, %d samples; single-field render %v, %d", i, multi.Pix[i], m, single.Pix[i], n)
		}
	}
}

func TestRenderMultiEmptyFields(t *testing.T) {
	cam := centeredOrtho(8, 8, 8)
	sub := RenderBlockMulti(nil, grid.WholeGrid(grid.Cube(8)), cam, MultiClassifier{}, Config{Step: 1})
	if sub.Samples != 0 {
		t.Error("no fields should render nothing")
	}
	out, n := RenderFullMulti(nil, cam, MultiClassifier{}, Config{Step: 1})
	if n != 0 || out == nil {
		t.Error("empty multi render broken")
	}
}
