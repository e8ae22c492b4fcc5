package compose

import (
	"fmt"

	"bgpvr/internal/comm"
	"bgpvr/internal/critpath"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/trace"
)

// BinarySwap composites with the binary-swap algorithm (Ma et al. 1994),
// the classic tree-structured baseline the paper contrasts with
// direct-send. p must be a power of two. Ranks are permuted into
// front-to-back visibility order; in each of log2(p) rounds a pair of
// ranks splits its current image region in half, exchanges halves, and
// composites, so each rank finishes owning 1/p of the image. The final
// image is gathered on rank 0 (nil elsewhere). It runs as RadixK with
// every factor 2.
func BinarySwap(c *comm.Comm, sub *render.Subimage, w, h int, order []int) (*img.Image, error) {
	p := c.Size()
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("compose: binary swap requires a power-of-two process count, got %d", p)
	}
	return RadixK(c, sub, w, h, RadixKFactor(p, 2), order)
}

// fullFrame places a partial image in a transparent w x h frame, which
// gatherSpans releases.
func fullFrame(sub *render.Subimage, w, h int) []img.RGBA {
	buf := img.Pixels.Get(w * h)
	clear(buf)
	sw := sub.Rect.W()
	for ri, row := range img.RectSpanRows(sub.Rect, w) {
		copy(buf[row.Lo:row.Hi], sub.Pix[ri*sw:(ri+1)*sw])
	}
	return buf
}

// gatherSpans ends binary swap and radix-k: every rank sends the span of
// the frame it finished with to rank 0 and releases the frame; rank 0
// decodes each span into place and returns the final image (nil
// elsewhere).
func gatherSpans(c *comm.Comm, buf []img.RGBA, span img.Span, w, h int) *img.Image {
	sp := c.Trace().Begin(trace.PhaseComposite, "final-gather")
	defer sp.End()
	msg := encodePixels(8, buf[span.Lo:span.Hi])
	img.Pixels.Put(buf)
	putI64s(msg, int64(span.Lo))
	c.Send(0, tagSpanGather, msg)
	if c.Rank() != 0 {
		return nil
	}
	out := img.New(w, h)
	for received := 0; received < c.Size(); received++ {
		_, b := c.Recv(comm.AnySource, tagSpanGather)
		img.GetPixels(out.Pix[getI64(b):][:(len(b)-8)/img.WirePixelBytes], b[8:])
		wire.Put(b)
	}
	return out
}

// SerialGather is the naive baseline: rank 0 receives every partial
// image whole and composites them serially in visibility order.
func SerialGather(c *comm.Comm, sub *render.Subimage, rects []img.Rect, w, h int, order []int) (*img.Image, error) {
	sp := c.Trace().Begin(trace.PhaseComposite, "serial-gather")
	defer sp.End()
	c.SetDepKind(critpath.DepFragment)
	defer c.SetDepKind(critpath.DepAuto)
	p := c.Size()
	if len(rects) != p {
		return nil, fmt.Errorf("compose: need %d rects, got %d", p, len(rects))
	}
	if c.Rank() != 0 {
		if !sub.Rect.Empty() {
			c.Send(0, tagDirectSend, encodePixels(0, sub.Pix))
		}
		return nil, nil
	}
	wires := make([][]byte, p)
	for r := 1; r < p; r++ {
		if rects[r].Empty() {
			continue
		}
		src, b := c.Recv(comm.AnySource, tagDirectSend)
		wires[src] = b
	}
	out := img.New(w, h)
	for _, r := range order { // front-to-back
		rect := rects[r]
		rw := rect.W()
		for y := 0; y < rect.H(); y++ {
			row := out.Pix[(rect.Y0+y)*w+rect.X0:][:rw]
			if r == 0 {
				img.UnderSlices(row, sub.Pix[y*rw:][:rw])
			} else {
				img.UnderWire(row, wires[r][img.WirePixelBytes*y*rw:])
			}
		}
		wire.Put(wires[r])
	}
	return out, nil
}
