// Package compose implements the paper's image compositing stage.
//
// The primary algorithm is direct-send (Hsu 1993): of the n rendering
// processes, m <= n compositor processes each own a rectangular tile
// covering 1/m of the final image, and every renderer sends each
// compositor the fragment of its partial image that overlaps the
// compositor's tile. A tile overlaps roughly one column of projected
// blocks, which is where the paper's O(m * n^(1/3)) total message count
// comes from. The paper's contribution is that m need not equal n: at
// large n, limiting m (1K compositors for 1K-4K renderers, 2K beyond)
// keeps messages large and few enough that the network stays near peak —
// a 30x compositing speedup at 32K cores (Fig 3/4).
//
// Binary swap (Ma et al. 1994) and a serial gather are provided as
// baselines for the ablation benchmarks. Binary swap runs as radix-k
// (radixk.go) with every factor 2, and every radix-k round is a
// direct-send inside each group, so one round executor serves both.
//
// The executors move actual pixels over the comm runtime; the Schedule
// functions list messages (source, destination, bytes) for the network
// model. Only DirectSendSchedule is its executor's own list (tested);
// BinarySwapSchedule prices the paper's classic dense halves (ranks
// paired by id, PixelBytes a pixel), while the executor ships only
// active runs, and radix-k and the serial gather have no schedule.
//
// Every executor moves pixels as fragments (fragment.go) through one
// encoder and one checked decoder: a renderer's or a round's partial
// image over a tile (encodeFragment), a composited tile on its way to
// rank 0 (encodeSpans), and eachRun behind checkFragment to blend or
// place either one. A pixel is written once, by the pixel codec
// (img.PutPixels, GetPixels, UnderWire), from the row it was rendered
// or blended in into the message that carries it, and the receiver
// blends or places it straight from the message bytes. Only the pixels
// that were drawn travel: a fragment carries active runs, a tile its
// spans, and rank 0 places the tiles in an image it zeroed while the
// other ranks worked.
package compose

import (
	"fmt"

	"bgpvr/internal/comm"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
)

// PixelBytes is the wire size of one composited pixel in the modeled
// schedules. The paper's message sizes (Fig 4: 1600^2 x 4 B / m) imply
// 4-byte RGBA pixels on the wire; the real-mode runtime moves float32
// pixels instead, and the model uses this constant so message sizes
// match the paper's.
const PixelBytes = 4

// CompRank returns the world rank acting as compositor i of m among p
// ranks, spread evenly (compositors are a subset of the renderers, as in
// the paper).
func CompRank(i, m, p int) int { return i * p / m }

// RankMessage is one compositing transfer between ranks.
type RankMessage struct {
	Src, Dst int
	Bytes    int64
}

// DirectSendSchedule returns the messages of a direct-send composite:
// renderer r sends compositor i the overlap of rect[r] with tile i. It
// is MultiBlockSchedule with one block per rank.
func DirectSendSchedule(rects []img.Rect, w, h, m int, pixBytes int64) []RankMessage {
	return MultiBlockSchedule(rects, len(rects), w, h, m, pixBytes)
}

// BinarySwapSchedule returns the messages of binary swap over p ranks
// (p must be a power of two): log2(p) rounds of pairwise half-image
// exchanges. Classic binary swap exchanges full image halves regardless
// of content.
func BinarySwapSchedule(p, w, h int, pixBytes int64) ([]RankMessage, error) {
	if p&(p-1) != 0 || p == 0 {
		return nil, fmt.Errorf("compose: binary swap requires a power-of-two process count, got %d", p)
	}
	var msgs []RankMessage
	part := int64(w*h) * pixBytes
	for round := 1; round < p; round <<= 1 {
		part /= 2
		for r := 0; r < p; r++ {
			msgs = append(msgs, RankMessage{Src: r, Dst: r ^ round, Bytes: part})
		}
	}
	return msgs, nil
}

// Tags used by the executors.
const (
	tagDirectSend = 100
	tagSpanGather = 101
	tagRound      = 110 // + radix-k round
)

// DirectSend composites the partial images of all ranks with m
// compositors owning one image tile each, and returns the final image on
// rank 0 (nil elsewhere). It is the one-block-per-rank case of
// DirectSendBlocks: rects[r] is rank r's subimage rectangle and order is
// the front-to-back rank permutation; all ranks compute both from the
// shared camera and decomposition, which is what makes direct-send need
// no control messages — each compositor knows exactly which renderers
// will send to it.
func DirectSend(c *comm.Comm, sub *render.Subimage, rects []img.Rect, w, h, m int, order []int) (*img.Image, error) {
	if len(rects) != c.Size() {
		return nil, fmt.Errorf("compose: need %d rects, got %d", c.Size(), len(rects))
	}
	return DirectSendBlocks(c, []*render.Subimage{sub}, []int{c.Rank()}, rects, w, h, m, order)
}
