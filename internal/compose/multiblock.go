package compose

import (
	"fmt"
	"sort"

	"bgpvr/internal/comm"
	"bgpvr/internal/critpath"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/trace"
)

// Multi-block direct-send: the paper "statically allocates a small
// number of blocks to each process" — more than one block per rank
// round-robins the spatial load so no process owns only boundary or
// only center blocks.

// DirectSendBlocks composites when each rank owns several blocks: subs
// and blockIDs list this rank's rendered blocks; rects holds every
// block's projected rectangle (indexed by block id); order is the
// front-to-back permutation of *block ids*. The final image lands on
// rank 0.
func DirectSendBlocks(c *comm.Comm, subs []*render.Subimage, blockIDs []int,
	rects []img.Rect, w, h, m int, order []int) (*img.Image, error) {

	p := c.Size()
	if m < 1 || m > p {
		return nil, fmt.Errorf("compose: m=%d must be in [1, %d]", m, p)
	}
	if len(subs) != len(blockIDs) {
		return nil, fmt.Errorf("compose: %d subimages for %d blocks", len(subs), len(blockIDs))
	}
	nblocks := len(rects)
	if len(order) != nblocks {
		return nil, fmt.Errorf("compose: order lists %d blocks, rects %d", len(order), nblocks)
	}
	tr := c.Trace()
	sp := tr.Begin(trace.PhaseComposite, "direct-send")
	defer sp.End()
	c.SetDepKind(critpath.DepFragment)
	defer c.SetDepKind(critpath.DepAuto)
	pos := make([]int64, nblocks)
	for k, b := range order {
		pos[b] = int64(k)
	}
	g := img.NewTileGrid(w, h, m)

	// Send each of my blocks' overlaps: the schedule's loop, with pixels.
	sendSp := tr.Begin(trace.PhaseComposite, "fragment-send")
	for i, sub := range subs {
		eachOverlap(g, sub.Rect, func(ti int, ov img.Rect) {
			c.Send(CompRank(ti, m, p), tagDirectSend, encodeFragment(pos[blockIDs[i]], sub, ov))
		})
	}
	sendSp.End()

	// Composite my tile (m <= p, so CompRank gives a rank at most one):
	// keep the received messages as they are, order them by the
	// visibility position in their first word and blend each straight
	// from its bytes.
	blendSp := tr.Begin(trace.PhaseComposite, "tile-blend")
	for ti := 0; ti < m; ti++ {
		if CompRank(ti, m, p) != c.Rank() {
			continue
		}
		tile, tx, ty := g.Tile(ti), ti%g.MX, ti/g.MX
		expected := 0 // the senders' test: in the rect's tile range, and overlapping
		for _, rect := range rects {
			tx0, tx1, ty0, ty1 := g.Range(rect)
			if tx0 <= tx && tx < tx1 && ty0 <= ty && ty < ty1 && !rect.Intersect(tile).Empty() {
				expected++
			}
		}
		msgs := make([][]byte, expected)
		for k := range msgs {
			_, msgs[k] = c.Recv(comm.AnySource, tagDirectSend)
		}
		sort.Slice(msgs, func(a, b int) bool { return getI64(msgs[a]) < getI64(msgs[b]) })
		acc := img.Pixels.Get(tile.NumPixels())
		clear(acc)
		for _, msg := range msgs {
			if err := blendFragment(acc, tile, msg); err != nil {
				return nil, err
			}
			wire.Put(msg)
		}
		payload := encodePixels(8, acc)
		img.Pixels.Put(acc)
		putI64s(payload, int64(ti))
		c.Send(0, tagSpanGather, payload)
	}
	blendSp.End()

	if c.Rank() != 0 {
		return nil, nil
	}
	gatherSp := tr.Begin(trace.PhaseComposite, "final-gather")
	defer gatherSp.End()
	out := img.New(w, h)
	for received := 0; received < m; received++ {
		_, b := c.Recv(comm.AnySource, tagSpanGather)
		tile := g.Tile(int(getI64(b)))
		tw := tile.W()
		for y := tile.Y0; y < tile.Y1; y++ {
			img.GetPixels(out.Pix[y*w+tile.X0:][:tw], b[8+img.WirePixelBytes*(y-tile.Y0)*tw:])
		}
		wire.Put(b)
	}
	return out, nil
}

// eachOverlap calls fn with every tile of g that rect overlaps and the
// overlap. Only the tiles in rect's range are probed, so walking every
// rect costs O(messages), not O(p*m) — at 32K renderers with 32K
// compositors the difference is a billion intersections. The schedules
// and the executor's send loop are this one walk.
func eachOverlap(g img.TileGrid, rect img.Rect, fn func(tile int, ov img.Rect)) {
	tx0, tx1, ty0, ty1 := g.Range(rect)
	for ty := ty0; ty < ty1; ty++ {
		for tx := tx0; tx < tx1; tx++ {
			i := ty*g.MX + tx
			if ov := rect.Intersect(g.Tile(i)); !ov.Empty() {
				fn(i, ov)
			}
		}
	}
}

// MultiBlockSchedule returns the direct-send message schedule when
// nblocks blocks are assigned round-robin to p ranks (block b on rank
// b mod p).
func MultiBlockSchedule(rects []img.Rect, p, w, h, m int, pixBytes int64) []RankMessage {
	g := img.NewTileGrid(w, h, m)
	var msgs []RankMessage
	for b, rect := range rects {
		eachOverlap(g, rect, func(i int, ov img.Rect) {
			msgs = append(msgs, RankMessage{
				Src: b % p, Dst: CompRank(i, m, p),
				Bytes: int64(ov.NumPixels()) * pixBytes,
			})
		})
	}
	return msgs
}
