package compose

import (
	"encoding/binary"

	"bgpvr/internal/img"
	"bgpvr/internal/render"
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

// encodePixels returns a message of head zero bytes, for the caller's
// header, followed by pix in wire form.
func encodePixels(head int, pix []img.RGBA) []byte {
	msg := make([]byte, head+img.WirePixelBytes*len(pix))
	img.PutPixels(msg[head:], pix)
	return msg
}

// encodeFragment serializes the overlap ov of a block's subimage with a
// tile, tagged with the block's visibility position (not the sender's
// rank), so a compositor orders pieces of one rank's several blocks
// correctly. It reads the overlap rows of sub.Pix in place and writes
// each pixel once, into a message allocated at its final size.
func encodeFragment(pos int64, sub *render.Subimage, ov img.Rect) []byte {
	ow, oh, sw := ov.W(), ov.H(), sub.Rect.W()
	first := (ov.Y0-sub.Rect.Y0)*sw + ov.X0 - sub.Rect.X0
	row := func(y int) []img.RGBA { return sub.Pix[first+y*sw:][:ow] }

	runs, active, inRun := 0, 0, false
	for y := 0; y < oh; y++ {
		for _, p := range row(y) {
			on := p != img.RGBA{}
			if on {
				active++
				if !inRun {
					runs++
				}
			}
			inRun = on
		}
	}

	n := ow * oh
	if activeBytes := 8 + 16*runs + 16*active; activeBytes >= 16*n {
		msg := make([]byte, fragHeadBytes+img.WirePixelBytes*n)
		putI64s(msg, pos, fragDense, int64(ov.X0), int64(ov.Y0), int64(ov.X1), int64(ov.Y1))
		for y := 0; y < oh; y++ {
			img.PutPixels(msg[fragHeadBytes+img.WirePixelBytes*y*ow:], row(y))
		}
		return msg
	}
	msg := make([]byte, fragHeadBytes+8+16*runs+img.WirePixelBytes*active)
	putI64s(msg, pos, fragActive, int64(ov.X0), int64(ov.Y0), int64(ov.X1), int64(ov.Y1), int64(runs))
	table := msg[fragHeadBytes+8:]
	pix := table[16*runs:]
	lo := -1 // start of the open run, -1 when none
	for y := 0; y < oh; y++ {
		r := row(y)
		for x := 0; x < ow; {
			if (r[x] == img.RGBA{}) {
				if lo >= 0 {
					putI64s(table, int64(lo), int64(y*ow+x))
					table, lo = table[16:], -1
				}
				x++
				continue
			}
			if lo < 0 {
				lo = y*ow + x
			}
			end := x + 1
			for end < ow && (r[end] != img.RGBA{}) {
				end++
			}
			img.PutPixels(pix, r[x:end])
			pix = pix[img.WirePixelBytes*(end-x):]
			x = end
		}
	}
	if lo >= 0 {
		putI64s(table, int64(lo), int64(n))
	}
	return msg
}

// blendFragment composites an encoded fragment under the accumulator of
// the tile it was sent to, straight from the message bytes. Pixels
// outside the active runs are transparent and leave the accumulator as
// it is (acc + t*0 == acc for every finite accumulator), so only the run
// pixels are touched, each run split at the fragment's row ends.
func blendFragment(acc []img.RGBA, tile img.Rect, msg []byte) {
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
		return
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
}
