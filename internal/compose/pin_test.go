package compose

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/scratch"
)

// The pins in this file were recorded at the commit before the pixel
// wire codec replaced the per-executor copy chains (PR 15): the encoded
// fragment bytes, the blend a compositor makes of them, and the final
// image of every executor are held bit for bit, so a codec change that
// moves one byte on the wire or reorders one floating-point operation
// fails here.

// pinOverlaps are the overlap shapes of the wire pin, all inside
// pinRect. crossing marks the shape whose first and last columns are
// forced active, so runs cross every row end at every active fraction.
var pinRect = img.Rect{X0: 3, Y0: 5, X1: 23, Y1: 17}

var pinOverlaps = []struct {
	name     string
	ov       img.Rect
	crossing bool
}{
	{"whole", pinRect, false},
	{"interior", img.Rect{X0: 5, Y0: 6, X1: 12, Y1: 10}, false},
	{"column", img.Rect{X0: 9, Y0: 5, X1: 10, Y1: 17}, false},
	{"row", img.Rect{X0: 3, Y0: 11, X1: 23, Y1: 12}, false},
	{"row-crossing", img.Rect{X0: 7, Y0: 7, X1: 15, Y1: 14}, true},
}

var pinFracs = []float64{0, 0.05, 0.5, 1}

// pinSub is the seeded subimage of one wire-pin case.
func pinSub(frac float64, ov img.Rect, crossing bool) *render.Subimage {
	sub := makeSub(pinRect, frac, int64(frac*100)+11)
	if crossing {
		w := pinRect.W()
		for y := ov.Y0; y < ov.Y1; y++ {
			row := (y - pinRect.Y0) * w
			sub.Pix[row+ov.X0-pinRect.X0] = img.RGBA{R: 0.25, G: 0.125, B: 0.5, A: 0.75}
			sub.Pix[row+ov.X1-1-pinRect.X0] = img.RGBA{R: 0.5, G: 0.25, B: 0.125, A: 0.625}
		}
	}
	return sub
}

func hexSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// wirePins is the SHA-256 of the encoded fragment of every
// "fraction/overlap" case.
var wirePins = map[string]string{
	"0/whole":           "92ed5c557092f33c5ad29c2e3704533ccb131c311c2830412e81e4d37cef1965",
	"0/interior":        "faf68d4f57c24d3e6b0711e5963e98c467ce2b32ccccd97962899fdf9453040f",
	"0/column":          "19c52a37136b335f559ff68f0619edbd8ad313f063d29daeac54f694ea47f1a6",
	"0/row":             "a1925f823e9a101a6d158bf32200de353e5ab6dfc522c453288aafd5246d5d69",
	"0/row-crossing":    "0a7827cbc2e742ab2860d9940c7c519b3d236c3a410bc75689b2fd99013d851a",
	"0.05/whole":        "f9d910e183e55dce57e782bae9c8aa3e37b7effe1fbc83160e819867b4cc7658",
	"0.05/interior":     "fa0323fa0d9e0a0c7785bb488b57e89e50e4c39a635bbb5794fd3ff0eee13526",
	"0.05/column":       "72ff3d348ea03c037cdcf4bf57d92c89b98adf80358d8b609cee3ad33032b537",
	"0.05/row":          "02c445ff509b056612c2e366415a7544a5db9246333fb97ca9a26b9e735f6d24",
	"0.05/row-crossing": "4f9d88b1df78fd4784736101510c442015777a8d5d9fb5f2194b66ae2c0a4f89",
	"0.5/whole":         "4ed938ed88220ec85f85d17bd23efcd997fc39c86bcc5c7df47959a801d87889",
	"0.5/interior":      "0dc7b8364c66b0a7b654fd1089bd858fe2c7ae5d88b98825a03f03ff633f5270",
	"0.5/column":        "465f629485bbfcf9a7f6f3ec2686fa93efd7cdb782c16dda8608050881dc7afe",
	"0.5/row":           "30c1d76e2c4d16961b5a2081b04831e0c7283811d488a9694573465833c9f2fa",
	"0.5/row-crossing":  "1cc8e7fa7034db12413bc8f53088ad04906896e8632045aee66d6f20b1b1b486",
	"1/whole":           "a0ec682bffaf1bc3844546eef6ee63b676de5ab7bf3949dd73e9e2a00d007b99",
	"1/interior":        "1ae85cace30c66f9d8f6fc94c03b695c5484cdcc1b7c7d977827bec6aa755b7a",
	"1/column":          "ea142d49bd16be17ca2c43b75a1750abca87e4a0c707c0654ed137938e8d782f",
	"1/row":             "99c64e606618c4aa4672a06380990f7a90c157e58ccfb33d210d6526bc9d6ba5",
	"1/row-crossing":    "0c4dd726c74bd174e12f5705870f9d1d9efda0f2e40d54d413c17823114dd4eb",
}

func TestFragmentWirePin(t *testing.T) {
	for _, frac := range pinFracs {
		for _, o := range pinOverlaps {
			key := fmt.Sprintf("%v/%s", frac, o.name)
			b := encodeFragment(41, pinSub(frac, o.ov, o.crossing), o.ov)
			if got := hexSum(b); got != wirePins[key] {
				t.Errorf("%s: %d wire bytes hash to\n\t%q: %q,", key, len(b), key, got)
			}
		}
	}
}

// pixelBytes is the hashed form of a pixel buffer: the float32 bit
// patterns, so +0 and -0 differ.
func pixelBytes(pix []img.RGBA) []byte {
	b := make([]byte, 0, 16*len(pix))
	for _, p := range pix {
		for _, v := range [4]float32{p.R, p.G, p.B, p.A} {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b
}

// pinScene is the seeded scene of the golden-image and allocation
// tests: the projected rectangles of an nblocks-block decomposition
// under the package's test camera, filled with seeded pixels (no ray
// casting, so a kernel change cannot move these hashes) whose active
// fraction cycles through sparse and dense so both wire formats occur.
func pinScene(nblocks, w, h int) (subs []*render.Subimage, rects []img.Rect, order []int) {
	const n = 32
	cam, eye, _, _ := cameras(n, w, h)
	d := grid.NewDecomp(grid.Cube(n), nblocks)
	order = d.FrontToBack([3]float64{eye.X, eye.Y, eye.Z})
	rects = make([]img.Rect, nblocks)
	subs = make([]*render.Subimage, nblocks)
	for b := range rects {
		rects[b] = render.ProjectedRect(cam, d.BlockExtent(b))
		subs[b] = makeSub(rects[b], []float64{0.02, 0.3, 0.9, 1}[b%4], int64(100+b))
	}
	return subs, rects, order
}

// runCompose runs fn on p ranks and returns rank 0's image and the
// world's traffic.
func runCompose(t testing.TB, p int, fn func(c *comm.Comm) (*img.Image, error)) (*img.Image, comm.TrafficStats) {
	t.Helper()
	var final *img.Image
	world := comm.NewWorld(p)
	err := world.Run(func(c *comm.Comm) error {
		out, err := fn(c)
		if c.Rank() == 0 {
			final = out
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return final, world.Stats()
}

// blocksOf returns the blocks rank r of p owns round-robin, with their
// subimages.
func blocksOf(subs []*render.Subimage, r, p int) (mine []*render.Subimage, ids []int) {
	for b := r; b < len(subs); b += p {
		mine = append(mine, subs[b])
		ids = append(ids, b)
	}
	return mine, ids
}

// goldenImages pins each executor's final image (SHA-256 of the pixel
// bit patterns) and the traffic that produced it.
var goldenImages = map[string]struct {
	sum   string
	msgs  int
	bytes int64
}{
	"direct-send m=n":           {"7852a79bbc32f8084e3f10937d61f97f8ecb7529ced9e252c44cbdd70476a046", 52, 157840},
	"direct-send m<n":           {"7852a79bbc32f8084e3f10937d61f97f8ecb7529ced9e252c44cbdd70476a046", 19, 155880},
	"direct-send 2 blocks/rank": {"efbba7db6d99d9509c7ed4ec9c15482994a96e993c376c5442e8927ff1a4f28d", 47, 188000},
	"binary-swap":               {"a1a9d502176e413393b603036531906954931025dc69a4b5685b29851fc12b69", 32, 983104},
	"radix-k 4":                 {"a1a9d502176e413393b603036531906954931025dc69a4b5685b29851fc12b69", 40, 983104},
	"radix-k 8":                 {"7852a79bbc32f8084e3f10937d61f97f8ecb7529ced9e252c44cbdd70476a046", 64, 983104},
	"radix-k 2,4":               {"868eecca0cde793fbb4e8d2ebe37a8c7dac9fcf9fbc4d076d657bfc9e71a37bb", 40, 983104},
	"binary-swap 97x81":         {"51572a9b1a006b4faa5b4c4cfbd47e8f9ecd2c9f00e0c5f10418c9018e0567e1", 32, 1005760},
	"radix-k 2,2,2 97x81":       {"51572a9b1a006b4faa5b4c4cfbd47e8f9ecd2c9f00e0c5f10418c9018e0567e1", 32, 1005760},
	"serial-gather":             {"7852a79bbc32f8084e3f10937d61f97f8ecb7529ced9e252c44cbdd70476a046", 7, 133120},
}

func TestGoldenCompositeImages(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes pin amd64 float32 arithmetic (no fused multiply-add)")
	}
	const p, w, h = 8, 96, 80
	subs, rects, order := pinScene(p, w, h)
	subs2, rects2, order2 := pinScene(2*p, w, h)
	// An odd frame splits every span unevenly.
	const wOdd, hOdd = 97, 81
	subsOdd, _, orderOdd := pinScene(p, wOdd, hOdd)
	cases := []struct {
		name string
		fn   func(c *comm.Comm) (*img.Image, error)
	}{
		{"direct-send m=n", func(c *comm.Comm) (*img.Image, error) {
			return DirectSend(c, subs[c.Rank()], rects, w, h, p, order)
		}},
		{"direct-send m<n", func(c *comm.Comm) (*img.Image, error) {
			return DirectSend(c, subs[c.Rank()], rects, w, h, 3, order)
		}},
		{"direct-send 2 blocks/rank", func(c *comm.Comm) (*img.Image, error) {
			mine, ids := blocksOf(subs2, c.Rank(), p)
			return DirectSendBlocks(c, mine, ids, rects2, w, h, 4, order2)
		}},
		{"binary-swap", func(c *comm.Comm) (*img.Image, error) {
			return BinarySwap(c, subs[c.Rank()], w, h, order)
		}},
		{"radix-k 4", func(c *comm.Comm) (*img.Image, error) {
			return RadixK(c, subs[c.Rank()], w, h, RadixKFactor(p, 4), order)
		}},
		{"radix-k 8", func(c *comm.Comm) (*img.Image, error) {
			return RadixK(c, subs[c.Rank()], w, h, []int{8}, order)
		}},
		{"radix-k 2,4", func(c *comm.Comm) (*img.Image, error) {
			return RadixK(c, subs[c.Rank()], w, h, []int{2, 4}, order)
		}},
		{"binary-swap 97x81", func(c *comm.Comm) (*img.Image, error) {
			return BinarySwap(c, subsOdd[c.Rank()], wOdd, hOdd, orderOdd)
		}},
		{"radix-k 2,2,2 97x81", func(c *comm.Comm) (*img.Image, error) {
			return RadixK(c, subsOdd[c.Rank()], wOdd, hOdd, []int{2, 2, 2}, orderOdd)
		}},
		{"serial-gather", func(c *comm.Comm) (*img.Image, error) {
			return SerialGather(c, subs[c.Rank()], rects, w, h, order)
		}},
	}
	for _, tc := range cases {
		out, traffic := runCompose(t, p, tc.fn)
		want := goldenImages[tc.name]
		if got := hexSum(pixelBytes(out.Pix)); got != want.sum || traffic.Messages != want.msgs || traffic.TotalBytes != want.bytes {
			t.Errorf("%s: image and traffic are\n\t%q: {%q, %d, %d},", tc.name, tc.name, got, traffic.Messages, traffic.TotalBytes)
		}
	}
}

// The executor sends exactly the schedule's messages plus one gather a
// non-empty tile: the send loop and the compositor's expected count walk
// the same tile ranges the schedule does, and an 8x8 frame in 1x11
// tiles leaves three with nothing to send.
func TestDirectSendMessagesMatchSchedule(t *testing.T) {
	for _, tc := range []struct{ w, h, p, m, bpr int }{
		{96, 80, 8, 8, 1}, {96, 80, 8, 3, 1}, {96, 80, 8, 4, 2}, {8, 8, 11, 11, 1},
	} {
		subs, rects, order := pinScene(tc.bpr*tc.p, tc.w, tc.h)
		_, traffic := runCompose(t, tc.p, func(c *comm.Comm) (*img.Image, error) {
			mine, ids := blocksOf(subs, c.Rank(), tc.p)
			return DirectSendBlocks(c, mine, ids, rects, tc.w, tc.h, tc.m, order)
		})
		g, gathers := img.NewTileGrid(tc.w, tc.h, tc.m), 0
		for ti := 0; ti < tc.m; ti++ {
			if !g.Tile(ti).Empty() {
				gathers++
			}
		}
		want := len(MultiBlockSchedule(rects, tc.p, tc.w, tc.h, tc.m, PixelBytes))
		if got := traffic.Messages - gathers; got != want {
			t.Errorf("%dx%d m=%d blocks/rank=%d: executor sent %d fragments, schedule lists %d", tc.w, tc.h, tc.m, tc.bpr, got, want)
		}
		if tc.w == 8 && gathers != 8 {
			t.Errorf("8x8 in %d tiles: %d non-empty, want 8", tc.m, gathers)
		}
	}
}

// A steady-state 1024^2 frame on 64 ranks with 16 compositors allocates
// the final image, which the caller keeps, and little else: fragment
// messages, tile accumulators and gather payloads all come from the
// recycler, which the frames before have filled. The subimages are fully
// active, so every fragment travels dense at 16 B a pixel. The ceiling
// is the image plus an eighth of one for headers, mailboxes, goroutines
// and whatever the pool had to replace; one fresh copy of the fragments
// (20 MB), of the accumulators or of the payloads (16.8 MB each) breaks
// it.
func TestDirectSendFrameAllocationCeiling(t *testing.T) {
	const p, m, w, h = 64, 16, 1024, 1024
	subs, rects, order := pinScene(p, w, h)
	for b, r := range rects {
		subs[b] = makeSub(r, 1, int64(b))
	}
	frame := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, _ := runCompose(t, p, func(c *comm.Comm) (*img.Image, error) {
			return DirectSend(c, subs[c.Rank()], rects, w, h, m, order)
		})
		runtime.ReadMemStats(&after)
		if out == nil {
			t.Fatal("no image")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The pool settles over a few frames (a frame whose fragments are
	// in flight in a different order needs a buffer the one before did
	// not), so steady state is the fewest of several.
	cold, warm := frame(), frame()
	for i := 0; i < 4; i++ {
		warm = min(warm, frame())
	}
	ceiling := uint64(16*w*h + 2*w*h)
	if warm > ceiling {
		t.Errorf("steady-state frame allocated %.1f MB, ceiling %.1f MB (the first allocated %.1f MB)",
			float64(warm)/1e6, float64(ceiling)/1e6, float64(cold)/1e6)
	} else {
		t.Logf("steady-state frame allocated %.1f MB of a %.1f MB ceiling (the first %.1f MB)",
			float64(warm)/1e6, float64(ceiling)/1e6, float64(cold)/1e6)
	}
}

// BenchmarkDirectSendFrame times one 1024^2 direct-send composite of
// pre-rendered seeded subimages on 64 ranks: the paper's m < n (16
// compositors) and m = n.
func BenchmarkDirectSendFrame(b *testing.B) {
	defer scratch.Poison(scratch.Poison(false)) // time the frame, not TestMain's poison fills
	const p, w, h = 64, 1024, 1024
	subs, rects, order := pinScene(p, w, h)
	for _, m := range []int{16, 64} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runCompose(b, p, func(c *comm.Comm) (*img.Image, error) {
					return DirectSend(c, subs[c.Rank()], rects, w, h, m, order)
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w*h), "ns/px")
		})
	}
}

// BenchmarkTreeComposite times one 1024^2 tree composite of
// pre-rendered seeded subimages on 16 ranks: binary swap, radix-k with
// target radix 4 ([4, 4]) and one round of 16 ([16]).
func BenchmarkTreeComposite(b *testing.B) {
	defer scratch.Poison(scratch.Poison(false)) // time the frame, not TestMain's poison fills
	const p, w, h = 16, 1024, 1024
	subs, _, order := pinScene(p, w, h)
	for _, tc := range []struct {
		name string
		fn   func(c *comm.Comm) (*img.Image, error)
	}{
		{"binary-swap", func(c *comm.Comm) (*img.Image, error) {
			return BinarySwap(c, subs[c.Rank()], w, h, order)
		}},
		{"radix-k=4", func(c *comm.Comm) (*img.Image, error) {
			return RadixK(c, subs[c.Rank()], w, h, RadixKFactor(p, 4), order)
		}},
		{"radix-k=16", func(c *comm.Comm) (*img.Image, error) {
			return RadixK(c, subs[c.Rank()], w, h, []int{p}, order)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runCompose(b, p, tc.fn)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w*h), "ns/px")
		})
	}
}
