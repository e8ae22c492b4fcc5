package render

import (
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

// parallelWorkerCounts are the widths the bit-identity tests exercise;
// 1 is the serial reference, 2 and 8 cover both under- and
// over-subscription of the container's cores.
var parallelWorkerCounts = []int{1, 2, 8}

func TestRenderBlockParallelBitIdentical(t *testing.T) {
	dims := grid.Cube(40)
	sn := volume.Supernova{Seed: 11, Time: 0.6}
	d := grid.NewDecomp(dims, 4)
	tf := volume.SupernovaTransfer()
	cam := centeredPersp(40, 48, 48)
	cfg := Config{Step: 0.8,
		Shade: Shading{Enabled: true, Ambient: 0.3, Diffuse: 0.7, LightDir: geom.V(0.4, 0.5, 1)}}
	for r := 0; r < d.NumBlocks(); r++ {
		own := d.BlockExtent(r)
		f := sn.Generate(volume.VarVelocityX, dims, d.GhostExtent(r, GhostLayersFor(cfg)))
		ref := RenderBlock(f, own, cam, tf, cfg)
		for _, w := range parallelWorkerCounts[1:] {
			pcfg := cfg
			pcfg.Workers = w
			got := RenderBlock(f, own, cam, tf, pcfg)
			if got.Samples != ref.Samples {
				t.Errorf("block %d workers=%d: Samples %d, serial %d", r, w, got.Samples, ref.Samples)
			}
			for i := range ref.Pix {
				if got.Pix[i] != ref.Pix[i] {
					t.Fatalf("block %d workers=%d: pixel %d differs: %+v vs %+v",
						r, w, i, got.Pix[i], ref.Pix[i])
				}
			}
		}
	}
}

func TestRenderFullParallelBitIdentical(t *testing.T) {
	f := testVolume(32)
	tf := volume.SupernovaTransfer()
	cfg := Config{Step: 0.5, EarlyTerminationAlpha: 0.95}
	// Orthographic tiles share the job's prepared box; every perspective
	// ray prepares its own, in a variable of its tile (the race detector
	// sees a field of the shared job written by two tiles).
	for name, cam := range map[string]Camera{"ortho": centeredOrtho(32, 40, 40), "persp": centeredPersp(32, 40, 40)} {
		ref, refSamples := RenderFull(f, cam, tf, cfg)
		if refSamples == 0 {
			t.Fatalf("%s: reference rendering took no samples", name)
		}
		for _, w := range parallelWorkerCounts {
			pcfg := cfg
			pcfg.Workers = w
			got, samples := RenderFull(f, cam, tf, pcfg)
			if samples != refSamples {
				t.Errorf("%s workers=%d: Samples %d, serial %d", name, w, samples, refSamples)
			}
			for i := range ref.Pix {
				if got.Pix[i] != ref.Pix[i] {
					t.Fatalf("%s workers=%d: pixel %d differs: %+v vs %+v", name, w, i, got.Pix[i], ref.Pix[i])
				}
			}
		}
	}
}

func TestRenderMultiParallelBitIdentical(t *testing.T) {
	dims := grid.Cube(24)
	fs := multiFields(dims, grid.WholeGrid(dims))
	cls := ModulatedClassifier(volume.SupernovaTransfer(), 0.2, 0.9)
	cfg := Config{Step: 0.6}
	cam := centeredOrtho(24, 36, 36)
	own := grid.WholeGrid(dims)
	ref := RenderBlockMulti(fs, own, cam, cls, cfg)
	refFull, refFullSamples := RenderFullMulti(fs, cam, cls, cfg)
	for _, w := range parallelWorkerCounts {
		pcfg := cfg
		pcfg.Workers = w
		got := RenderBlockMulti(fs, own, cam, cls, pcfg)
		if got.Samples != ref.Samples {
			t.Errorf("block workers=%d: Samples %d, serial %d", w, got.Samples, ref.Samples)
		}
		for i := range ref.Pix {
			if got.Pix[i] != ref.Pix[i] {
				t.Fatalf("block workers=%d: pixel %d differs", w, i)
			}
		}
		gotFull, samples := RenderFullMulti(fs, cam, cls, pcfg)
		if samples != refFullSamples {
			t.Errorf("full workers=%d: Samples %d, serial %d", w, samples, refFullSamples)
		}
		for i := range refFull.Pix {
			if gotFull.Pix[i] != refFull.Pix[i] {
				t.Fatalf("full workers=%d: pixel %d differs", w, i)
			}
		}
	}
}
