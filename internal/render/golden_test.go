package render

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

// The golden hashes pin the ray-casting kernel bit for bit: every pixel
// and every sample count of eight scenes, rendered serially and as
// blocks (eight, unless the scene says otherwise). The first three were recorded at the commit before the
// per-block cast plan replaced the predicate-per-sample loop (PR 13), so
// a kernel change that alters which samples are taken, or the order of
// one floating-point operation in sampling, classification or
// accumulation, fails here rather than in a tolerance somewhere
// downstream.

type goldenScene struct {
	name          string
	n, w, h       int
	nz            int // planes in z; 0 means n (a cube)
	blocks        int // blocks of the parallel cast; 0 means 8
	cam           func(n, w, h int) Camera
	tf            *volume.Transfer
	cfg           Config
	serial, p8    string // SHA-256 of RenderFull / of the blocks' RenderBlock subimages
	multi, multi8 string // the same through the multivariate entry points
}

func (sc goldenScene) dims() grid.IVec3 {
	d := grid.Cube(sc.n)
	if sc.nz != 0 {
		d.Z = sc.nz
	}
	return d
}

// sceneOrtho mirrors core.DefaultScene's camera (core imports render,
// so the test cannot ask it).
func sceneOrtho(n, w, h int) Camera {
	c := float64(n-1) / 2
	side := float64(n) * 1.9
	return NewOrtho(geom.V(c, c, c), geom.V(0.35, -0.25, -1), geom.V(0, 1, 0), side, side, w, h)
}

// bandTransfer is transparent over the middle of the value range, so
// whole runs of a ray's samples classify to zero opacity.
func bandTransfer() *volume.Transfer {
	return volume.NewTransfer(
		volume.TransferPoint{V: 0.00, R: 0.1, G: 0.2, B: 0.9, A: 0.8},
		volume.TransferPoint{V: 0.40, R: 0.6, G: 0.8, B: 1.0, A: 0},
		volume.TransferPoint{V: 0.60, R: 1.0, G: 0.9, B: 0.5, A: 0},
		volume.TransferPoint{V: 1.00, R: 0.9, G: 0.1, B: 0.1, A: 0.8},
	)
}

// sceneAxis looks straight along x: the view direction has two zero
// components and right (z) two, so every sample of a row shares its y.
func sceneAxis(n, w, h int) Camera {
	c := float64(n-1) / 2
	side := float64(n) * 1.9
	return NewOrtho(geom.V(c, c, c), geom.V(1, 0, 0), geom.V(0, 1, 0), side, side, w, h)
}

func scenePersp(n, w, h int) Camera { return centeredPersp(n, w, h) }

// scenePlane looks along the z = 0 plane of a single-plane field: only
// rays that lie in the plane take samples, which is the middle row of an
// image with an odd number of rows (its origin's z is exactly 0).
func scenePlane(n, w, h int) Camera {
	c := float64(n-1) / 2
	return NewOrtho(geom.V(c, c, 0), geom.V(1, 0.3, 0), geom.V(0, 0, 1), float64(n)*1.9, 3, w, h)
}

var goldenScenes = []goldenScene{
	{name: "ortho-96-512", n: 96, w: 512, h: 512, cam: sceneOrtho, cfg: Config{Step: 1}, tf: volume.SupernovaTransfer(),
		serial: "7ea357d3b0eeb9926a7056f8aa996fd33701db56b68b70f4691fdeab5dbdfe41",
		p8:     "d37891e074444cb397316094d4d3663ad3eb9e37c3a5c46396472b3542830d00",
		multi:  "-"},
	{name: "persp-shaded-step0.7", n: 40, w: 96, h: 80, cam: scenePersp,
		cfg:    Config{Step: 0.7, Shade: Shading{Enabled: true, LightDir: geom.V(0.4, 0.5, 1)}},
		tf:     volume.SupernovaTransfer(),
		serial: "1e7d8207ca76fc885fb704ab8ffe441168ba8d19574427aa5aa76e51bc4a5028",
		p8:     "00bc5d6e8d91312de2500968d52769cb038f843be237412518a0b0b354bc2473",
		multi:  "fa0e12df539bfff8c796d1481b0ab0abc9a26dc997372e9f2477d52d29953e1a",
		multi8: "a08088983be69974914e13731accf79f4d620e4d849dcdec50d9c427b075d5ad"},
	{name: "band-term0.9-step0.9", n: 48, w: 128, h: 128, cam: sceneOrtho,
		cfg:    Config{Step: 0.9, EarlyTerminationAlpha: 0.9},
		tf:     bandTransfer(),
		serial: "e8e903af6479640b8c5329a0ae3aff4244cb392db5d14f348edf3c37656d6ff8",
		p8:     "031cc2f2c9dd62317173dbd0753042579c0f02f1114e77dd4c8eec997749b69e",
		multi:  "8a19f090e5c49c2a52f73f1e29ced3c26351bc9fd0f4ecca1a03f857581a312a",
		multi8: "a01c584af88eebf698ed65853ef8996623753577864aca7258ec4aff65c3931f"},
	// The next two were recorded at the commit before the cast sampled a
	// ray a chunk at a time (PR 24). The first turns on everything the
	// chunk walk must get right at once: shading between classification
	// and Over, a ray that terminates inside a chunk, and two samples per
	// cell. The second is a field with a
	// single-plane axis, where the sampler's base cell clamps to the one
	// plane and interpolates flat across it.
	{name: "ortho-shaded-term-step0.5", n: 40, w: 112, h: 96, cam: sceneOrtho,
		cfg: Config{Step: 0.5, EarlyTerminationAlpha: 0.9,
			Shade: Shading{Enabled: true, LightDir: geom.V(0.4, 0.5, 1)}},
		tf:     bandTransfer(),
		serial: "e756c7caef80c7ae747b73095acc3351d13f68101c61753ed5cb19ed9144eb51",
		p8:     "cb812bdf3933e1d2ca5414e99defbaba7a55496b3209e173f52f215eb3e9c5fe",
		multi:  "15dfb95c506ca653447221212d405078a7296e01e6d631f767d1be3b7b681c61",
		multi8: "ad3dd052e7986cfe6719ff3d6424b8cef423595deb82024f5ed02dcf0bb766fc"},
	{name: "single-plane-48x48x1", n: 48, nz: 1, w: 128, h: 3, cam: scenePlane, cfg: Config{Step: 0.25},
		tf:     volume.SupernovaTransfer(),
		serial: "075bd1f4905f56a13d6fd4ff36c108543e88432bf696f5b820eb1a9bab3efe48",
		p8:     "6819434f0a93d5e90026abca7520e9ff231e4379878f97eb15e9626373ff44e1",
		multi:  "3d2248ec676773dcceb833c7ba16b18e0c057e31d8c4721028a2349e5301b51b",
		multi8: "6bbbf89238f7f6f3552d8f8ef8f8fb3a792928297f8c56209be46f5c1271afbb"},
	// The last two were recorded at the commit before an orthographic cast
	// computed a sample window per row. The first is the benchmark's
	// frame-composite scene at a quarter of its image: 64 blocks of 4^3 at
	// step 16, so a ray takes at most one sample of a block. The second
	// looks along an axis, so the view direction and right each have zero
	// components.
	{name: "composite-16-step16-64-blocks", n: 16, w: 256, h: 256, blocks: 64, cam: sceneOrtho, cfg: Config{Step: 16},
		tf:     volume.SupernovaTransfer(),
		serial: "5bab8c2ae91dde7febb9ff752ed0aae29d41de4e79ed116c69a980606f99d3fa",
		p8:     "7afeacda27b0e1a07c672d7db0195af15c0d39c8a224cc3c4def13504f64f220",
		multi:  "43911ae5a52f0981eacfc045b134b63744bd9ce5c8be46e6e386499f7518b787",
		multi8: "4de3922058e58a1a4e2390f315d43a20bb34bb62659ee7fd2eca2915cf75cafb"},
	{name: "axis-aligned-x-step0.5", n: 32, w: 96, h: 96, cam: sceneAxis, cfg: Config{Step: 0.5},
		tf:     volume.SupernovaTransfer(),
		serial: "556dddf616722fa64fd05f6213af8d1d8fac7aafccbc4468a2370b3c64717fcd",
		p8:     "8d9ae539c72d016f6dd3af543282c100f88059b4a685210790f1d112ed7f99cc",
		multi:  "735679d59a4dd9863dbc68b921c7329f4bcbd14acd132da0fa25d1dc03116c47",
		multi8: "71204267df7d492162a71070044cce42c251971d7d2fc790b39f3a7c53078ca0"},
	// Recorded at the commit before a step of an integer length other than
	// one corrected opacity without math.Pow, and before a block's rect
	// bracketed its samples once for all its rows. Step 3 runs both
	// multiplies of the square-and-multiply loop (3 is 0b11), and of the
	// 512 blocks of 2^3 cells 361 rects hold one sample index and 4 none,
	// so both ways a rect bracket decides its rows are taken, beside 147
	// rects whose rows search their own.
	{name: "ortho-16-step3-512-blocks", n: 16, w: 128, h: 128, blocks: 512, cam: sceneOrtho, cfg: Config{Step: 3},
		tf:     volume.SupernovaTransfer(),
		serial: "3e9338eafe0b724d1851cb2370569fdeb81d680f5d418b4c81674a2d8272a5da",
		p8:     "30441d74d34251655388e0ce7c99e2ccdb6558c251e09278b745cf6c8cd798d6",
		multi:  "548e3db82b610969a67dc903893402b308da8d3cab880394d3501004945d77d1",
		multi8: "66ba55e9d1241536f8daafd85e1235380ee80c9a428a59600a26984362daab79"},
}

func hashPixels(h hash.Hash, pix []img.RGBA, samples int64) {
	var b [16]byte
	for _, p := range pix {
		binary.LittleEndian.PutUint32(b[0:], math.Float32bits(p.R))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(p.G))
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(p.B))
		binary.LittleEndian.PutUint32(b[12:], math.Float32bits(p.A))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:8], uint64(samples))
	h.Write(b[:8])
}

func hashSub(h hash.Hash, s *Subimage) {
	var b [32]byte
	for i, v := range []int{s.Rect.X0, s.Rect.Y0, s.Rect.X1, s.Rect.Y1} {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(v)))
	}
	h.Write(b[:])
	hashPixels(h, s.Pix, s.Samples)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func TestGoldenKernelHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were recorded on amd64; other architectures may fuse multiply-adds")
	}
	for _, sc := range goldenScenes {
		dims := sc.dims()
		sn := volume.Supernova{Seed: 1530, Time: 1.1}
		full := sn.GenerateFull(volume.VarVelocityX, dims)
		rho := sn.GenerateFull(volume.VarDensity, dims)
		tf := sc.tf
		cls := ModulatedClassifier(tf, 0.2, 0.9)
		cam := sc.cam(sc.n, sc.w, sc.h)
		nb := sc.blocks
		if nb == 0 {
			nb = 8
		}
		d := grid.NewDecomp(dims, nb)
		ghost := GhostLayersFor(sc.cfg)
		blocks := make([]*volume.Field, d.NumBlocks())
		rhoBlocks := make([]*volume.Field, d.NumBlocks())
		for r := range blocks {
			blocks[r] = volume.NewField(dims, d.GhostExtent(r, ghost))
			blocks[r].SubfieldFrom(full)
			rhoBlocks[r] = volume.NewField(dims, d.GhostExtent(r, ghost))
			rhoBlocks[r].SubfieldFrom(rho)
		}
		for _, workers := range []int{1, 4} {
			cfg := sc.cfg
			cfg.Workers = workers
			check := func(kind, want string, h hash.Hash) {
				t.Helper()
				if got := sum(h); got != want {
					t.Errorf("%s %s workers=%d: hash %s, golden %s", sc.name, kind, workers, got, want)
				}
			}

			h := sha256.New()
			im, samples := RenderFull(full, cam, tf, cfg)
			hashPixels(h, im.Pix, samples)
			check("serial", sc.serial, h)

			h = sha256.New()
			for r := range blocks {
				hashSub(h, RenderBlock(blocks[r], d.BlockExtent(r), cam, tf, cfg))
			}
			check("block", sc.p8, h)

			// The multivariate path is pinned on every scene but the
			// largest (it ignores shading, so the shaded scenes give it
			// a plain cast at their step).
			if sc.multi == "-" {
				continue
			}
			h = sha256.New()
			im, samples = RenderFullMulti([]*volume.Field{full, rho}, cam, cls, cfg)
			hashPixels(h, im.Pix, samples)
			check("multi serial", sc.multi, h)

			h = sha256.New()
			for r := range blocks {
				hashSub(h, RenderBlockMulti([]*volume.Field{blocks[r], rhoBlocks[r]}, d.BlockExtent(r), cam, cls, cfg))
			}
			check("multi block", sc.multi8, h)
		}
	}
}
