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
// The dense format carries every pixel of the rectangle; the active-pixel
// format (an IceT-style optimization) carries only runs, which shrinks
// messages dramatically for blocks whose bounding rectangle is mostly
// empty. A run is what the sender vouches may be non-transparent: every
// pixel outside the runs is transparent, one inside may be too.
// encodeFragment's runs are exactly the non-transparent stretches, and
// it picks whichever format is smaller; a compositor's tile gather
// (encodeSpans) sends the spans it blended. Runs index the rectangle's
// row-major pixel order, so one run may continue across a row end; the
// mode word keeps the receiver format-agnostic.
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
// decoding it; a blended tile (its img.Pixels and row spans) is
// released by the compositor that blended it, once its pixels are in
// the gather payload or, for a radix-k round's tile, in the next
// round's fragments.
var wire = scratch.Pool[byte]{Poison: 0xFF}

// overlap is the overlap ov of a block's subimage with a tile, read
// row by row through the subimage's spans: outside them a pixel is
// transparent, whatever sub.Pix holds there.
type overlap struct {
	sub *render.Subimage
	ov  img.Rect
}

// row returns the pixels of overlap row y.
func (o overlap) row(y int) []img.RGBA {
	r := o.sub.Rect
	return o.sub.Pix[(o.ov.Y0-r.Y0+y)*r.W()+o.ov.X0-r.X0:][:o.ov.W()]
}

// span returns the columns [a, b) of overlap row y that can be active;
// an empty one is [0, 0).
func (o overlap) span(y int) (a, b int) {
	x0 := o.ov.X0 - o.sub.Rect.X0
	sp := o.sub.Span(o.ov.Y0 - o.sub.Rect.Y0 + y)
	a, b = max(int(sp.Lo)-x0, 0), min(int(sp.Hi)-x0, o.ov.W())
	if a >= b {
		return 0, 0
	}
	return a, b
}

// putDense writes the overlap ov of sub into msg in wire form, every
// pixel of it row-major: the span pixels as they are, and +0 for the
// transparent ones around them.
func putDense(msg []byte, sub *render.Subimage, ov img.Rect) {
	o := overlap{sub, ov}
	lw := img.WirePixelBytes * ov.W()
	for y := 0; y < ov.H(); y++ {
		line := msg[lw*y:][:lw]
		a, b := o.span(y)
		clear(line[:img.WirePixelBytes*a])
		img.PutPixels(line[img.WirePixelBytes*a:], o.row(y)[a:b])
		clear(line[img.WirePixelBytes*b:])
	}
}

// encodeFragment serializes the overlap ov of a block's subimage with a
// tile, tagged with the block's visibility position (not the sender's
// rank), so a compositor orders pieces of one rank's several blocks
// correctly. It reads the overlap rows of sub.Pix in place and writes
// each pixel once, into a message taken at its final size. Of each row
// it reads only what sub's spans say can be active: the pixels outside
// a span are transparent (and unspecified in sub.Pix), but a cast's
// span is loose, so the scan is still needed inside it.
func encodeFragment(pos int64, sub *render.Subimage, ov img.Rect) []byte {
	ow, oh := ov.W(), ov.H()
	o := overlap{sub, ov}

	runs, active, next := 0, 0, -1 // next: the index that continues the last run
	for y := 0; y < oh; y++ {
		a, b := o.span(y)
		for x, p := range o.row(y)[a:b] {
			if (p != img.RGBA{}) {
				i := y*ow + a + x
				if i != next {
					runs++
				}
				active++
				next = i + 1
			}
		}
	}

	n := ow * oh
	if activeBytes := 8 + 16*runs + 16*active; activeBytes >= 16*n {
		msg := wire.Get(fragHeadBytes + img.WirePixelBytes*n)
		putI64s(msg, pos, fragDense, int64(ov.X0), int64(ov.Y0), int64(ov.X1), int64(ov.Y1))
		putDense(msg[fragHeadBytes:], sub, ov)
		return msg
	}
	rw := newRunWriter(pos, ov, runs, active)
	for y := 0; y < oh; y++ {
		r := o.row(y)
		a, b := o.span(y)
		for x := a; x < b; {
			if (r[x] == img.RGBA{}) {
				x++
				continue
			}
			end := x + 1
			for end < b && (r[end] != img.RGBA{}) {
				end++
			}
			rw.put(y*ow+x, r[x:end])
			x = end
		}
	}
	return rw.finish()
}

// encodeSpans serializes a partial image for the final gather: its
// pixels inside its row spans, one run a non-empty span, merged across
// row ends; an empty rectangle is an empty message. It copies the span
// pixels without scanning them, and never reads one outside a span.
func encodeSpans(pos int64, sub *render.Subimage) []byte {
	if sub.Rect.Empty() {
		return nil
	}
	w, h := sub.Rect.W(), sub.Rect.H()
	runs, active, next := 0, 0, -1
	for y := 0; y < h; y++ {
		if s := sub.Span(y); s.Lo < s.Hi {
			if y*w+int(s.Lo) != next {
				runs++
			}
			active += int(s.Hi - s.Lo)
			next = y*w + int(s.Hi)
		}
	}
	rw := newRunWriter(pos, sub.Rect, runs, active)
	for y := 0; y < h; y++ {
		if s := sub.Span(y); s.Lo < s.Hi {
			rw.put(y*w+int(s.Lo), sub.Pix[y*w+int(s.Lo):y*w+int(s.Hi)])
		}
	}
	return rw.finish()
}

// runWriter is the one writer of the active format: the header, for run
// and pixel counts the caller has made, then pixels put in rectangle
// order, each put continuing the open run when it starts where the run
// ends.
type runWriter struct {
	msg, table, pix []byte
	lo, hi          int // the open run [lo, hi); empty before the first put
}

func newRunWriter(pos int64, rect img.Rect, runs, active int) runWriter {
	msg := wire.Get(fragHeadBytes + 8 + 16*runs + img.WirePixelBytes*active)
	putI64s(msg, pos, fragActive, int64(rect.X0), int64(rect.Y0), int64(rect.X1), int64(rect.Y1), int64(runs))
	table := msg[fragHeadBytes+8:]
	return runWriter{msg: msg, table: table, pix: table[16*runs:]}
}

// put appends the pixels p of row-major positions [i, i+len(p));
// len(p) > 0 and i is past every pixel put before.
func (rw *runWriter) put(i int, p []img.RGBA) {
	if i != rw.hi {
		rw.closeRun()
		rw.lo = i
	}
	img.PutPixels(rw.pix, p)
	rw.pix = rw.pix[img.WirePixelBytes*len(p):]
	rw.hi = i + len(p)
}

func (rw *runWriter) closeRun() {
	if rw.lo < rw.hi {
		putI64s(rw.table, int64(rw.lo), int64(rw.hi))
		rw.table = rw.table[16:]
	}
}

// finish closes the last run and returns the message.
func (rw *runWriter) finish() []byte {
	rw.closeRun()
	return rw.msg
}

// checkFragment validates an encoded fragment against the area it is
// decoded into (a compositor's tile, or the image for a gathered tile) —
// mode, rectangle inside the area, run table ascending and inside the
// rectangle, payload length — so that eachRun indexes the area's pixels
// only where the message is entitled to write.
func checkFragment(area img.Rect, msg []byte) error {
	if len(msg) < fragHeadBytes {
		return fmt.Errorf("compose: fragment of %d bytes is shorter than its header", len(msg))
	}
	mode := getI64(msg[8:])
	var c [4]int64 // X0, Y0, X1, Y1
	for i := range c {
		c[i] = getI64(msg[16+8*i:])
	}
	if c[0] < int64(area.X0) || c[1] < int64(area.Y0) || c[2] > int64(area.X1) || c[3] > int64(area.Y1) ||
		c[0] >= c[2] || c[1] >= c[3] {
		return fmt.Errorf("compose: fragment rectangle (%d,%d)-(%d,%d) is empty or outside %v", c[0], c[1], c[2], c[3], area)
	}
	n := (c[2] - c[0]) * (c[3] - c[1]) // at most the area's pixels: no overflow
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

// blendFragment checks msg against area and then applies op to dst,
// area's row-major pixels, under every run of msg: img.UnderWire blends
// a fragment under a tile (a transparent pixel outside the runs would
// leave the pixel as it is: acc + t*0 == acc for every finite acc), and
// img.GetPixels places a gathered tile in the final image. A refused
// message writes nothing.
func blendFragment(dst []img.RGBA, area img.Rect, msg []byte, op func([]img.RGBA, []byte)) error {
	if err := checkFragment(area, msg); err != nil {
		return err
	}
	eachRun(area, msg, func(i, n int, pix []byte) { op(dst[i:][:n], pix) })
	return nil
}

// eachRun is the one decoder of both formats. It walks a fragment that
// checkFragment has passed against area and calls fn with every run,
// split at the fragment's row ends: the piece's first pixel as an index
// into area's row-major pixels, its length, and its wire bytes.
func eachRun(area img.Rect, msg []byte, fn func(i, n int, pix []byte)) {
	x0, y0 := int(getI64(msg[16:])), int(getI64(msg[24:]))
	fw := int(getI64(msg[32:])) - x0
	fh := int(getI64(msg[40:])) - y0
	aw := area.W()
	origin := (y0-area.Y0)*aw + x0 - area.X0 // the fragment's first pixel in area
	piece := func(lo, hi int, pix []byte) {  // pixels [lo, hi) of one fragment row
		fn(origin+(lo/fw)*aw+lo%fw, hi-lo, pix)
	}
	if getI64(msg[8:]) == fragDense {
		for y := 0; y < fh; y++ {
			piece(y*fw, (y+1)*fw, msg[fragHeadBytes+img.WirePixelBytes*y*fw:])
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
			piece(lo, end, pix)
			pix = pix[img.WirePixelBytes*(end-lo):]
			lo = end
		}
	}
}
