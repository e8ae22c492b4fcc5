package compose

import (
	"encoding/binary"
	"math"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/volume"
)

// A cast subimage's pixels outside its rows' spans are unspecified: the
// cast leaves whatever the recycled buffer held there. The tests below
// fill them with NaN, opaque white and arbitrary bits, and hold every
// compositor's image to the one it makes of the same subimages cleared
// there and read whole (no spans).

// spanFrame is a cast frame the span tests composite: the subimages of
// an 8-block and of a 16-block decomposition (one and two blocks a rank
// on spanRanks ranks) of a small volume, with their rectangles and
// front-to-back orders.
type spanFrame struct {
	subs, subs2   []*render.Subimage
	rects, rects2 []img.Rect
	order, order2 []int
}

const (
	spanRanks = 8
	spanW     = 56
	spanH     = 48
	spanN     = 20
	spanSide  = 6.0
)

// castBlocks casts the subimages of an nblocks-block decomposition of
// the span tests' volume.
func castBlocks(nblocks int) (subs []*render.Subimage, rects []img.Rect, order []int) {
	sn := volume.Supernova{Seed: 21, Time: 0.6}
	tf := volume.SupernovaTransfer()
	cfg := render.Config{Step: 0.75}
	// The view is zoomed in so that some tiles lie inside a block's
	// silhouette, whose fragments travel dense.
	c := float64(spanN-1) / 2
	cam := render.NewOrtho(geom.V(c, c, c), geom.V(0.4, -0.3, -1), geom.V(0, 1, 0), spanSide, spanSide*spanH/spanW, spanW, spanH)
	eye := cam.Eye()
	dims := grid.Cube(spanN)
	d := grid.NewDecomp(dims, nblocks)
	order = d.FrontToBack([3]float64{eye.X, eye.Y, eye.Z})
	for b := 0; b < nblocks; b++ {
		f := sn.Generate(volume.VarVelocityX, dims, d.GhostExtent(b, 1))
		subs = append(subs, render.RenderBlock(f, d.BlockExtent(b), cam, tf, cfg))
		rects = append(rects, render.ProjectedRect(cam, d.BlockExtent(b)))
	}
	return subs, rects, order
}

func newSpanFrame() spanFrame {
	var f spanFrame
	f.subs, f.rects, f.order = castBlocks(spanRanks)
	f.subs2, f.rects2, f.order2 = castBlocks(2 * spanRanks)
	return f
}

// withOutside returns copies of subs whose pixels outside the spans
// are fill(i), i counting those pixels across all of subs; fill nil
// clears them and drops the spans, so the copies are read whole.
func withOutside(subs []*render.Subimage, fill func(i int) img.RGBA) []*render.Subimage {
	out := make([]*render.Subimage, len(subs))
	i := 0
	for b, s := range subs {
		c := &render.Subimage{Rect: s.Rect, Pix: append([]img.RGBA(nil), s.Pix...), Spans: s.Spans, Samples: s.Samples}
		w := s.Rect.W()
		for y := 0; y < s.Rect.H(); y++ {
			sp := s.Span(y)
			for x := 0; x < w; x++ {
				if x < int(sp.Lo) || x >= int(sp.Hi) {
					if fill == nil {
						c.Pix[y*w+x] = img.RGBA{}
					} else {
						c.Pix[y*w+x] = fill(i)
						i++
					}
				}
			}
		}
		if fill == nil {
			c.Spans = nil
		}
		out[b] = c
	}
	return out
}

// spanComposites are the compositors the span tests run on rank c,
// given the frame's subimages of one and of two blocks a rank.
var spanComposites = []struct {
	name string
	run  func(c *comm.Comm, f spanFrame, subs, subs2 []*render.Subimage) (*img.Image, error)
}{
	{"direct-send m=n", func(c *comm.Comm, f spanFrame, subs, _ []*render.Subimage) (*img.Image, error) {
		return DirectSend(c, subs[c.Rank()], f.rects, spanW, spanH, spanRanks, f.order)
	}},
	{"direct-send m<n", func(c *comm.Comm, f spanFrame, subs, _ []*render.Subimage) (*img.Image, error) {
		return DirectSend(c, subs[c.Rank()], f.rects, spanW, spanH, 3, f.order)
	}},
	{"direct-send 2 blocks/rank", func(c *comm.Comm, f spanFrame, _, subs2 []*render.Subimage) (*img.Image, error) {
		mine, ids := blocksOf(subs2, c.Rank(), spanRanks)
		return DirectSendBlocks(c, mine, ids, f.rects2, spanW, spanH, 4, f.order2)
	}},
	{"binary-swap", func(c *comm.Comm, f spanFrame, subs, _ []*render.Subimage) (*img.Image, error) {
		return BinarySwap(c, subs[c.Rank()], spanW, spanH, f.order)
	}},
	{"radix-k 4", func(c *comm.Comm, f spanFrame, subs, _ []*render.Subimage) (*img.Image, error) {
		return RadixK(c, subs[c.Rank()], spanW, spanH, RadixKFactor(spanRanks, 4), f.order)
	}},
	{"serial-gather", func(c *comm.Comm, f spanFrame, subs, _ []*render.Subimage) (*img.Image, error) {
		return SerialGather(c, subs[c.Rank()], f.rects, spanW, spanH, f.order)
	}},
}

// images runs every compositor on the frame's subimages with fill
// outside the spans (nil: cleared and read whole) and returns each
// final image's pixel bits.
func (f spanFrame) images(t testing.TB, fill func(i int) img.RGBA) [][]byte {
	subs, subs2 := withOutside(f.subs, fill), withOutside(f.subs2, fill)
	out := make([][]byte, len(spanComposites))
	for k, sc := range spanComposites {
		im, _ := runCompose(t, spanRanks, func(c *comm.Comm) (*img.Image, error) { return sc.run(c, f, subs, subs2) })
		out[k] = pixelBytes(im.Pix)
	}
	return out
}

// fragmentFormats counts the dense and the active fragments direct-send
// with m compositors encodes of subs.
func fragmentFormats(subs []*render.Subimage, rects []img.Rect, m int) (dense, active int) {
	g := img.NewTileGrid(spanW, spanH, m)
	for b, sub := range subs {
		eachOverlap(g, rects[b], func(_ int, ov img.Rect) {
			msg := encodeFragment(0, sub, ov)
			if getI64(msg[8:]) == fragDense {
				dense++
			} else {
				active++
			}
			wire.Put(msg)
		})
	}
	return dense, active
}

// No pixel outside a cast subimage's spans reaches a compositor's image:
// NaN there, or opaque white, gives every compositor the image of the
// subimages cleared there, bit for bit, over direct-send fragments of
// both formats.
func TestOutsideSpansNeverComposited(t *testing.T) {
	f := newSpanFrame()
	for _, m := range []int{spanRanks, 3} {
		if dense, active := fragmentFormats(f.subs, f.rects, m); dense == 0 || active == 0 {
			t.Fatalf("m=%d: %d dense and %d active fragments; the test needs both", m, dense, active)
		}
	}
	outside := 0
	withOutside(f.subs, func(int) img.RGBA { outside++; return img.RGBA{} })
	if outside == 0 {
		t.Fatal("no pixel of the cast subimages lies outside a span")
	}
	want := f.images(t, nil)
	nan := float32(math.NaN())
	for _, fill := range []struct {
		name string
		px   img.RGBA
	}{{"NaN", img.RGBA{R: nan, G: nan, B: nan, A: nan}}, {"opaque white", img.RGBA{R: 1, G: 1, B: 1, A: 1}}} {
		got := f.images(t, func(int) img.RGBA { return fill.px })
		for k, sc := range spanComposites {
			if string(got[k]) != string(want[k]) {
				t.Errorf("%s outside the spans: %s's image differs from the cleared subimages'", fill.name, sc.name)
			}
		}
	}
}

// FuzzOutsideSpansNeverComposited is the property above over arbitrary
// bits outside the spans: data, cycled, gives each such pixel's four
// float32 channels.
func FuzzOutsideSpansNeverComposited(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(binary.LittleEndian.AppendUint32(nil, math.Float32bits(1)))
	f.Add([]byte{0x00, 0x00, 0x80, 0x7F, 0x00, 0x00, 0x80, 0xFF, 0x00, 0x00, 0x00, 0x80})
	frame := newSpanFrame()
	want := frame.images(f, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		word := func(j int) float32 {
			var b [4]byte
			for k := range b {
				b[k] = data[(4*j+k)%len(data)]
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
		}
		got := frame.images(t, func(i int) img.RGBA {
			return img.RGBA{R: word(4 * i), G: word(4*i + 1), B: word(4*i + 2), A: word(4*i + 3)}
		})
		for k, sc := range spanComposites {
			if string(got[k]) != string(want[k]) {
				t.Fatalf("%s: bits outside the spans reached the image", sc.name)
			}
		}
	})
}
