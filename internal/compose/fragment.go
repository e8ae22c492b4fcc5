package compose

import (
	"encoding/binary"
	"fmt"

	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/scratch"
)

// Fragment wire format, all little-endian:
//
//	int64 pos                  visibility position of the sender's block
//	int64 mode                 fragDense or fragActive
//	int64 X0, Y0, X1, Y1       the overlap rectangle
//	dense:  float32 RGBA for every pixel of the rectangle, row-major
//	active: int64 nruns; int64 lo, hi per run; float32 RGBA per run pixel
//
// The dense format carries every pixel of the overlap; the active-pixel
// format (an IceT-style optimization) carries only runs of
// non-transparent pixels, which shrinks messages dramatically for blocks
// whose bounding rectangle is mostly empty. Runs index the rectangle's
// row-major pixel order, so one run may continue across a row end. The
// encoder picks whichever is smaller, so the optimization is always
// safe; the mode word keeps the receiver format-agnostic.
const (
	fragDense  = 0
	fragActive = 1

	fragHeadBytes = 6 * 8 // pos, mode, rectangle
)

func putI64s(b []byte, vs ...int64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
}

func getI64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// The compositors' frame-lifetime buffers come from the recycler
// (internal/scratch has the ownership rule). A message belongs to its
// receiver once sent, so the receiver releases it after blending or
// decoding it; an accumulator (img.Pixels) is released by the compositor
// that took it, once its pixels are in the gather payload.
var wire = scratch.Pool[byte]{Poison: 0xFF}

// encodePixels returns a message of head bytes for the caller's header
// (unspecified until written), followed by pix in wire form.
func encodePixels(head int, pix []img.RGBA) []byte {
	msg := wire.Get(head + img.WirePixelBytes*len(pix))
	img.PutPixels(msg[head:], pix)
	return msg
}

// encodeFragment serializes the overlap ov of a block's subimage with a
// tile, tagged with the block's visibility position (not the sender's
// rank), so a compositor orders pieces of one rank's several blocks
// correctly. It reads the overlap rows of sub.Pix in place and writes
// each pixel once, into a message taken at its final size. Of each row
// it scans only what sub.Spans says can be active: the pixels outside a
// span are transparent, so a run open at a span's edge ends there.
func encodeFragment(pos int64, sub *render.Subimage, ov img.Rect) []byte {
	ow, oh, sw := ov.W(), ov.H(), sub.Rect.W()
	x0, y0 := ov.X0-sub.Rect.X0, ov.Y0-sub.Rect.Y0 // the overlap's corner in sub
	row := func(y int) []img.RGBA { return sub.Pix[(y0+y)*sw+x0:][:ow] }
	// span returns the columns [a, b) of overlap row y that can be
	// active; an empty one is [0, 0).
	span := func(y int) (a, b int) {
		if sub.Spans == nil {
			return 0, ow
		}
		sp := sub.Spans[y0+y]
		a, b = max(int(sp.Lo)-x0, 0), min(int(sp.Hi)-x0, ow)
		if a >= b {
			return 0, 0
		}
		return a, b
	}

	runs, active, inRun := 0, 0, false
	for y := 0; y < oh; y++ {
		a, b := span(y)
		if a > 0 {
			inRun = false
		}
		for _, p := range row(y)[a:b] {
			on := p != img.RGBA{}
			if on {
				active++
				if !inRun {
					runs++
				}
			}
			inRun = on
		}
		if b < ow {
			inRun = false
		}
	}

	n := ow * oh
	if activeBytes := 8 + 16*runs + 16*active; activeBytes >= 16*n {
		msg := wire.Get(fragHeadBytes + img.WirePixelBytes*n)
		putI64s(msg, pos, fragDense, int64(ov.X0), int64(ov.Y0), int64(ov.X1), int64(ov.Y1))
		for y := 0; y < oh; y++ {
			img.PutPixels(msg[fragHeadBytes+img.WirePixelBytes*y*ow:], row(y))
		}
		return msg
	}
	msg := wire.Get(fragHeadBytes + 8 + 16*runs + img.WirePixelBytes*active)
	putI64s(msg, pos, fragActive, int64(ov.X0), int64(ov.Y0), int64(ov.X1), int64(ov.Y1), int64(runs))
	table := msg[fragHeadBytes+8:]
	pix := table[16*runs:]
	lo := -1 // start of the open run, -1 when none
	closeRun := func(end int) {
		if lo >= 0 {
			putI64s(table, int64(lo), int64(end))
			table, lo = table[16:], -1
		}
	}
	for y := 0; y < oh; y++ {
		r := row(y)
		a, b := span(y)
		if a > 0 {
			closeRun(y * ow)
		}
		for x := a; x < b; {
			if (r[x] == img.RGBA{}) {
				closeRun(y*ow + x)
				x++
				continue
			}
			if lo < 0 {
				lo = y*ow + x
			}
			end := x + 1
			for end < b && (r[end] != img.RGBA{}) {
				end++
			}
			img.PutPixels(pix, r[x:end])
			pix = pix[img.WirePixelBytes*(end-x):]
			x = end
		}
		if b < ow {
			closeRun(y*ow + b)
		}
	}
	closeRun(n)
	return msg
}

// checkFragment validates an encoded fragment against the tile it was
// sent to — mode, rectangle inside the tile, run table ascending and
// inside the rectangle, payload length — so that blendFragment indexes
// the accumulator only where the message is entitled to write.
func checkFragment(tile img.Rect, msg []byte) error {
	if len(msg) < fragHeadBytes {
		return fmt.Errorf("compose: fragment of %d bytes is shorter than its header", len(msg))
	}
	mode := getI64(msg[8:])
	var c [4]int64 // X0, Y0, X1, Y1
	for i := range c {
		c[i] = getI64(msg[16+8*i:])
	}
	if c[0] < int64(tile.X0) || c[1] < int64(tile.Y0) || c[2] > int64(tile.X1) || c[3] > int64(tile.Y1) ||
		c[0] >= c[2] || c[1] >= c[3] {
		return fmt.Errorf("compose: fragment rectangle (%d,%d)-(%d,%d) is empty or outside tile %v", c[0], c[1], c[2], c[3], tile)
	}
	n := (c[2] - c[0]) * (c[3] - c[1]) // at most the tile's pixels: no overflow
	body := int64(len(msg) - fragHeadBytes)
	switch mode {
	case fragDense:
		if body != img.WirePixelBytes*n {
			return fmt.Errorf("compose: dense fragment of %d pixels carries %d payload bytes", n, body)
		}
		return nil
	case fragActive:
		if body < 8 {
			return fmt.Errorf("compose: active fragment has no run count")
		}
		runs := getI64(msg[fragHeadBytes:])
		// A run holds at least one pixel, which bounds the count before
		// the table's size is computed from it.
		if runs < 0 || runs > n || body-8 < 16*runs {
			return fmt.Errorf("compose: active fragment of %d pixels lists %d runs in %d bytes", n, runs, body)
		}
		table := msg[fragHeadBytes+8:][:16*runs]
		var end, active int64 // end of the previous run; pixels so far
		for ; len(table) > 0; table = table[16:] {
			lo, hi := getI64(table), getI64(table[8:])
			if lo < end || hi <= lo || hi > n {
				return fmt.Errorf("compose: fragment run [%d, %d) after %d in a rectangle of %d pixels", lo, hi, end, n)
			}
			end, active = hi, active+hi-lo
		}
		if body != 8+16*runs+img.WirePixelBytes*active {
			return fmt.Errorf("compose: active fragment of %d run pixels carries %d bytes", active, body)
		}
		return nil
	default:
		return fmt.Errorf("compose: unknown fragment mode %d", mode)
	}
}

// blendFragment composites an encoded fragment under the accumulator of
// the tile it was sent to, straight from the message bytes, after
// checkFragment has passed it. Pixels outside the active runs are
// transparent and leave the accumulator as it is (acc + t*0 == acc for
// every finite accumulator), so only the run pixels are touched, each
// run split at the fragment's row ends.
func blendFragment(acc []img.RGBA, tile img.Rect, msg []byte) error {
	if err := checkFragment(tile, msg); err != nil {
		return err
	}
	x0, y0 := int(getI64(msg[16:])), int(getI64(msg[24:]))
	fw := int(getI64(msg[32:])) - x0
	fh := int(getI64(msg[40:])) - y0
	tw := tile.W()
	origin := (y0-tile.Y0)*tw + x0 - tile.X0 // the fragment's first pixel in acc
	under := func(lo, hi int, wire []byte) { // pixels [lo, hi) of one fragment row
		y, x := lo/fw, lo%fw
		img.UnderWire(acc[origin+y*tw+x:][:hi-lo], wire)
	}
	if getI64(msg[8:]) == fragDense {
		for y := 0; y < fh; y++ {
			under(y*fw, (y+1)*fw, msg[fragHeadBytes+img.WirePixelBytes*y*fw:])
		}
		return nil
	}
	runs := int(getI64(msg[fragHeadBytes:]))
	table := msg[fragHeadBytes+8:]
	pix := table[16*runs:]
	for ; runs > 0; runs, table = runs-1, table[16:] {
		lo, hi := int(getI64(table)), int(getI64(table[8:]))
		for lo < hi {
			end := min(hi, (lo/fw+1)*fw)
			under(lo, end, pix)
			pix = pix[img.WirePixelBytes*(end-lo):]
			lo = end
		}
	}
	return nil
}
