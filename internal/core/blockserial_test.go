package core

import (
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/volume"
)

// blockSerialImage is the frame's reference on its own decomposition:
// the scene cut into nblocks blocks as RunReal cuts it, each block
// generated with its ghost layers and cast alone, and the subimages
// blended front to back with img.Over into a cleared image, one pixel
// at a time. It shares the cast with the frame and nothing after it.
func blockSerialImage(s Scene, nblocks int) *img.Image {
	d := grid.NewDecomp(s.Dims, nblocks)
	ghost := render.GhostLayersFor(s.RenderConfig())
	cam, tf, rcfg := s.Camera(), s.Transfer(), s.RenderConfig()
	out := img.New(s.ImageW, s.ImageH)
	for _, b := range s.FrontToBack(d) {
		f := volume.NewField(s.Dims, d.GhostExtent(b, ghost))
		s.Supernova().Fill(f, s.Variable)
		sub := render.RenderBlock(f, d.BlockExtent(b), cam, tf, rcfg)
		r := sub.Rect
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				p := &out.Pix[y*out.W+x]
				*p = img.Over(*p, sub.At(x, y))
			}
		}
		sub.Release()
	}
	return out
}

// Direct-send blends each pixel's fragments front to back in the order
// the reference does, from a cleared accumulator, so its frame is the
// block-serial image bit for bit at every rank count and any number of
// blocks a rank.
func TestRunRealMatchesBlockSerial(t *testing.T) {
	s := smallScene()
	for _, bpr := range []int{1, 2} {
		for _, p := range []int{1, 2, 4, 8} {
			ref := blockSerialImage(s, p*bpr)
			res, err := RunReal(RealConfig{Scene: s, Procs: p, Format: FormatGenerate, BlocksPerRank: bpr})
			if err != nil {
				t.Fatalf("p=%d bpr=%d: %v", p, bpr, err)
			}
			if d := img.MaxDiff(res.Image, ref); d != 0 {
				t.Errorf("p=%d bpr=%d: direct-send differs from the block-serial reference by %v", p, bpr, d)
			}
		}
	}
}

// FuzzRealMatchesBlockSerial is the comparison above over the frame's
// decomposition and compositor on small scenes: 8^3 to 16^3 volumes,
// 4^2 to 32^2 images, shaded or not, orthographic or perspective, 1 to 8
// ranks. Direct-send (any m, one to four blocks a rank) and serial
// gather blend each pixel in the reference's order and must match it
// bit for bit. Binary swap and radix-k associate the blend differently
// and keep the tree's 2e-5 until a bound derived from their rounds
// replaces it.
func FuzzRealMatchesBlockSerial(f *testing.F) {
	f.Add(uint8(10), uint8(24), uint8(8), uint8(1), uint8(2), uint8(CompositeDirectSend), false, false)
	f.Add(uint8(16), uint8(31), uint8(3), uint8(3), uint8(0), uint8(CompositeDirectSend), true, true)
	f.Add(uint8(12), uint8(20), uint8(6), uint8(0), uint8(0), uint8(CompositeSerialGather), false, true)
	f.Add(uint8(9), uint8(17), uint8(4), uint8(0), uint8(0), uint8(CompositeBinarySwap), true, false)
	f.Add(uint8(14), uint8(28), uint8(5), uint8(0), uint8(0), uint8(CompositeRadixK), false, false)
	f.Fuzz(func(t *testing.T, n, size, procs, bpr, m, algo uint8, shaded, persp bool) {
		s := DefaultScene(8+int(n)%9, 4+int(size)%29)
		s.Shaded, s.Perspective = shaded, persp
		cfg := RealConfig{Scene: s, Procs: 1 + int(procs)%8, Format: FormatGenerate, Algo: CompositeAlgo(algo % 4)}
		switch cfg.Algo {
		case CompositeDirectSend:
			cfg.BlocksPerRank = 1 + int(bpr)%4
			cfg.Compositors = 1 + int(m)%cfg.Procs
		case CompositeBinarySwap:
			for cfg.Procs&(cfg.Procs-1) != 0 {
				cfg.Procs--
			}
		}
		res, err := RunReal(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		ref := blockSerialImage(s, cfg.Procs*max(cfg.BlocksPerRank, 1))
		d := img.MaxDiff(res.Image, ref)
		exact := cfg.Algo == CompositeDirectSend || cfg.Algo == CompositeSerialGather
		if exact && d != 0 || d > 2e-5 {
			t.Errorf("n=%d img=%d shaded=%v persp=%v procs=%d bpr=%d m=%d algo=%d: differs from the block-serial reference by %v",
				s.Dims.X, s.ImageW, shaded, persp, cfg.Procs, cfg.BlocksPerRank, cfg.Compositors, cfg.Algo, d)
		}
	})
}
