package compose

import (
	"cmp"
	"fmt"
	"slices"

	"bgpvr/internal/comm"
	"bgpvr/internal/critpath"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/scratch"
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
	var out *img.Image
	if c.Rank() == 0 {
		// Zeroed here, while the other ranks send and blend, rather than
		// alone after them: the gather writes only the pixels the
		// compositors blended.
		out = img.New(w, h)
	}

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
	// from its bytes. A tile left empty by more tiles than image rows or
	// columns receives nothing and has nothing to gather.
	blendSp := tr.Begin(trace.PhaseComposite, "tile-blend")
	for ti := 0; ti < m; ti++ {
		if CompRank(ti, m, p) != c.Rank() || g.Tile(ti).Empty() {
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
		payload, err := compositeTile(ti, tile, recvFragments(c, tagDirectSend, expected))
		if err != nil {
			return nil, err
		}
		c.Send(0, tagSpanGather, payload)
	}
	blendSp.End()

	if c.Rank() != 0 {
		return nil, nil
	}
	gathers := 0
	for ti := 0; ti < m; ti++ {
		if !g.Tile(ti).Empty() {
			gathers++
		}
	}
	return out, placeTiles(c, out, gathers)
}

// recvFragments receives n messages with tag from any rank and returns
// the non-empty ones ordered by the visibility position in their first
// word, the order every executor blends fragments in.
func recvFragments(c *comm.Comm, tag, n int) [][]byte {
	msgs := make([][]byte, 0, n)
	for ; n > 0; n-- {
		if _, b := c.Recv(comm.AnySource, tag); len(b) > 0 {
			msgs = append(msgs, b)
		}
	}
	slices.SortFunc(msgs, func(a, b []byte) int { return cmp.Compare(getI64(a), getI64(b)) })
	return msgs
}

// placeTiles ends every executor but the serial gather on rank 0: it
// receives n composited tiles, each its spans (encodeSpans), and places
// them in out, which holds +0 everywhere else from img.New. An empty
// message is a tile with nothing to place.
func placeTiles(c *comm.Comm, out *img.Image, n int) error {
	sp := c.Trace().Begin(trace.PhaseComposite, "final-gather")
	defer sp.End()
	full := img.Rect{X1: out.W, Y1: out.H}
	for ; n > 0; n-- {
		_, b := c.Recv(comm.AnySource, tagSpanGather)
		if len(b) == 0 {
			continue
		}
		if err := blendFragment(out.Pix, full, b, img.GetPixels); err != nil {
			return err
		}
		wire.Put(b)
	}
	return nil
}

// tileSpans recycles blendTile's row spans.
var tileSpans = scratch.Pool[render.RowSpan]{Poison: render.RowSpan{Lo: -1, Hi: -1}}

// compositeTile blends the fragments msgs under tile ti and returns the
// tile's gather message: the pixels the fragments blended, which rank 0
// places in an image that holds +0 elsewhere from img.New.
func compositeTile(ti int, tile img.Rect, msgs [][]byte) ([]byte, error) {
	t, err := blendTile(tile, msgs)
	if err != nil {
		return nil, err
	}
	payload := encodeSpans(int64(ti), &t)
	releaseTile(t)
	return payload, nil
}

// blendTile blends the fragments msgs, in visibility order, under a
// transparent tile and returns the tile as a partial image, releasing
// the fragments; the caller releases the tile with releaseTile. It
// checks every fragment before writing anything, then bounds, row by
// row, the pixels any fragment will blend, and clears and blends only
// those: they are the tile's spans, and every pixel outside them is
// transparent.
func blendTile(tile img.Rect, msgs [][]byte) (render.Subimage, error) {
	for _, msg := range msgs {
		if err := checkFragment(tile, msg); err != nil {
			return render.Subimage{}, err
		}
	}
	tw := tile.W()
	spans := tileSpans.Get(tile.H())
	clear(spans)
	for _, msg := range msgs {
		eachRun(tile, msg, func(i, n int, _ []byte) {
			s, lo, hi := &spans[i/tw], int32(i%tw), int32(i%tw+n)
			if s.Lo == s.Hi {
				s.Lo, s.Hi = lo, hi
			} else {
				s.Lo, s.Hi = min(s.Lo, lo), max(s.Hi, hi)
			}
		})
	}
	acc := img.Pixels.Get(tile.NumPixels())
	for y, s := range spans {
		clear(acc[y*tw+int(s.Lo) : y*tw+int(s.Hi)])
	}
	for _, msg := range msgs {
		eachRun(tile, msg, func(i, n int, pix []byte) { img.UnderWire(acc[i:][:n], pix) })
		wire.Put(msg)
	}
	return render.Subimage{Rect: tile, Pix: acc, Spans: spans}, nil
}

// releaseTile recycles the pixels and spans of a tile blendTile made.
func releaseTile(t render.Subimage) {
	img.Pixels.Put(t.Pix)
	tileSpans.Put(t.Spans)
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
