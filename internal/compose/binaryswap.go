package compose

import (
	"fmt"
	"slices"

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

// SerialGather is the naive baseline: every rank sends rank 0 its whole
// partial image as one fragment, and rank 0 blends the fragments under
// the image in visibility order.
func SerialGather(c *comm.Comm, sub *render.Subimage, rects []img.Rect, w, h int, order []int) (*img.Image, error) {
	sp := c.Trace().Begin(trace.PhaseComposite, "serial-gather")
	defer sp.End()
	c.SetDepKind(critpath.DepFragment)
	defer c.SetDepKind(critpath.DepAuto)
	if len(rects) != c.Size() {
		return nil, fmt.Errorf("compose: need %d rects, got %d", c.Size(), len(rects))
	}
	if !sub.Rect.Empty() {
		c.Send(0, tagDirectSend, encodeFragment(int64(slices.Index(order, c.Rank())), sub, sub.Rect))
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	n := 0
	for _, r := range rects {
		if !r.Empty() {
			n++
		}
	}
	out, full := img.New(w, h), img.Rect{X1: w, Y1: h}
	for _, msg := range recvFragments(c, tagDirectSend, n) {
		if err := blendFragment(out.Pix, full, msg, img.UnderWire); err != nil {
			return nil, err
		}
		wire.Put(msg)
	}
	return out, nil
}
