package compose

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"bgpvr/internal/img"
	"bgpvr/internal/render"
)

// withSpans returns sub with the spans a cast would have recorded: each
// row's first and one-past-last non-transparent pixel. loosen widens
// every non-empty span by up to that many columns, which a span list is
// allowed to be.
func withSpans(sub *render.Subimage, loosen int) *render.Subimage {
	w := sub.Rect.W()
	out := &render.Subimage{Rect: sub.Rect, Pix: sub.Pix, Spans: make([]render.RowSpan, sub.Rect.H())}
	for y := range out.Spans {
		lo, hi := 0, 0
		for x, p := range sub.Pix[y*w:][:w] {
			if p != (img.RGBA{}) {
				if hi == 0 {
					lo = x
				}
				hi = x + 1
			}
		}
		if hi > 0 {
			lo, hi = max(lo-loosen, 0), min(hi+loosen, w)
		}
		out.Spans[y] = render.RowSpan{Lo: int32(lo), Hi: int32(hi)}
	}
	return out
}

// The encoder scans only the spans, and the message it writes is the
// one it writes scanning whole rows — the pinned bytes — for every pin
// case (runs that cross every row end among them) and for a subimage
// built to put a span edge everywhere one can fall.
func TestFragmentSpansLeaveWireBytesUnchanged(t *testing.T) {
	for _, frac := range pinFracs {
		for _, o := range pinOverlaps {
			sub := pinSub(frac, o.ov, o.crossing)
			want := encodeFragment(41, sub, o.ov)
			for _, loosen := range []int{0, 2} {
				if got := encodeFragment(41, withSpans(sub, loosen), o.ov); !bytes.Equal(got, want) {
					t.Errorf("frac=%v %s loosen=%d: %d bytes with spans differ from %d without", frac, o.name, loosen, len(got), len(want))
				}
			}
		}
	}

	// 8 columns by 7 rows, active pixels marked x:
	//   row 0  . . x x x x x x   a run that reaches the row end ...
	//   row 1  x x x . . . . .   ... and continues across it, then ends inside the span's row
	//   row 2  . . . . . . . .   a row whose span is empty
	//   row 3  . . . . . x x x   a run open at the row end ...
	//   row 4  . x x . . . . .   ... that the next row's late span start closes
	//   row 5  x x x x x x x x   a full row ...
	//   row 6  x . . . . x . x   ... running into a row with holes inside its span
	rect := img.Rect{X0: 10, Y0: 20, X1: 18, Y1: 27}
	rows := []string{"..xxxxxx", "xxx.....", "........", ".....xxx", ".xx.....", "xxxxxxxx", "x....x.x"}
	sub := &render.Subimage{Rect: rect, Pix: make([]img.RGBA, rect.NumPixels())}
	for y, row := range rows {
		for x, c := range row {
			if c == 'x' {
				v := float32(1+y*8+x) / 64
				sub.Pix[y*8+x] = img.RGBA{R: v / 2, G: v / 4, B: v / 8, A: v}
			}
		}
	}
	spanned := withSpans(sub, 0)
	if sp := spanned.Spans[2]; sp.Lo != sp.Hi {
		t.Fatalf("row 2 span %+v, want empty", sp)
	}
	overlaps := []img.Rect{
		rect,
		{X0: 12, Y0: 20, X1: 18, Y1: 27}, // cuts spans on the left
		{X0: 10, Y0: 21, X1: 15, Y1: 26}, // cuts them on the right: rows 3's span misses the overlap
		{X0: 13, Y0: 22, X1: 14, Y1: 23}, // one pixel of the empty row
	}
	for _, ov := range overlaps {
		want := encodeFragment(5, sub, ov)
		if got := encodeFragment(5, spanned, ov); !bytes.Equal(got, want) {
			t.Errorf("overlap %v: %d bytes with spans differ from %d without", ov, len(got), len(want))
		}
		acc := make([]img.RGBA, ov.NumPixels())
		if err := blendFragment(acc, ov, want, img.UnderWire); err != nil {
			t.Errorf("overlap %v: %v", ov, err)
		}
		for i, p := range acc {
			x, y := ov.X0+i%ov.W(), ov.Y0+i/ov.W()
			if p != sub.At(x, y) {
				t.Fatalf("overlap %v: blended pixel (%d, %d) = %+v, want %+v", ov, x, y, p, sub.At(x, y))
			}
		}
	}
	// The whole-rect message is active-pixel encoded with the six runs
	// the picture shows (rows 0-1, 3, 4, 5-6, and two more in row 6).
	if msg := encodeFragment(5, spanned, rect); getI64(msg[8:]) != fragActive || getI64(msg[fragHeadBytes:]) != 6 {
		t.Errorf("whole-rect message has mode %d and %d runs, want active with 6", getI64(msg[8:]), getI64(msg[fragHeadBytes:]))
	}
}

// fuzzTile is the tile the malformed-message tests blend into.
var fuzzTile = img.Rect{X0: 1, Y0: 2, X1: 30, Y1: 20}

// fuzzSeeds are well-formed messages for fuzzTile in both formats:
// dense, active, empty, encoded with and without spans.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, frac := range pinFracs {
		for _, o := range pinOverlaps {
			sub := pinSub(frac, o.ov, o.crossing)
			seeds = append(seeds, encodeFragment(3, sub, o.ov), encodeFragment(3, withSpans(sub, 1), o.ov))
		}
	}
	return seeds
}

// A message whose header, run table or length does not add up is
// refused before the accumulator is touched.
func TestBlendFragmentRejectsMalformed(t *testing.T) {
	active := encodeFragment(3, pinSub(0.05, pinRect, false), pinRect)
	dense := encodeFragment(3, pinSub(1, pinRect, false), pinRect)
	if getI64(active[8:]) != fragActive || getI64(active[fragHeadBytes:]) < 2 || getI64(dense[8:]) != fragDense {
		t.Fatal("seed messages are not one active (two runs or more) and one dense")
	}
	patch := func(msg []byte, off int, v int64) []byte {
		out := append([]byte(nil), msg...)
		putI64s(out[off:], v)
		return out
	}
	run0 := fragHeadBytes + 8
	cases := []struct {
		name string
		msg  []byte
		want string
	}{
		{"shorter than a header", active[:fragHeadBytes-1], "shorter"},
		{"unknown mode", patch(active, 8, 7), "mode"},
		{"rectangle left of the tile", patch(dense, 16, int64(fuzzTile.X0)-1), "outside"},
		{"rectangle below the tile", patch(dense, 40, int64(fuzzTile.Y1)+1), "outside"},
		{"inverted rectangle", patch(dense, 32, getI64(dense[16:])), "empty"},
		{"huge rectangle", patch(dense, 32, 1<<62), "outside"},
		{"dense payload one pixel short", dense[:len(dense)-img.WirePixelBytes], "payload"},
		{"dense payload one byte long", append(append([]byte(nil), dense...), 0), "payload"},
		{"active without a run count", active[:fragHeadBytes+4], "run count"},
		{"negative run count", patch(active, fragHeadBytes, -1), "runs"},
		{"run count past the table", patch(active, fragHeadBytes, 1<<40), "runs"},
		{"run starting below zero", patch(active, run0, -1), "run ["},
		{"run ending past the rectangle", patch(active, run0+8, int64(pinRect.NumPixels())+1), "run ["},
		{"empty run", patch(active, run0+8, getI64(active[run0:])), "run ["},
		{"runs out of order", patch(active, run0+16, 0), "run ["},
		{"active payload one pixel short", active[:len(active)-img.WirePixelBytes], "carries"},
	}
	for _, tc := range cases {
		for _, op := range placeOps {
			acc := makeSub(fuzzTile, 0.7, 99).Pix
			before := append([]img.RGBA(nil), acc...)
			err := blendFragment(acc, fuzzTile, tc.msg, op.fn)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %s: err = %v, want one mentioning %q", op.name, tc.name, err, tc.want)
			}
			if string(pixelBytes(acc)) != string(pixelBytes(before)) {
				t.Errorf("%s %s: a refused message changed the pixels", op.name, tc.name)
			}
		}
		// A compositor handed the malformed message between two good ones
		// refuses the tile before it takes an accumulator: the recycler
		// holds no buffer of the tile's size (held takes them all), so
		// taking one would be a fresh allocation of that size. It releases
		// (under TestMain's poison, overwrites) none of the messages
		// either.
		msgs := [][]byte{slices.Clone(dense), slices.Clone(tc.msg), slices.Clone(active)}
		held := takeEveryPixelBuffer(fuzzTile.NumPixels())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		payload, err := compositeTile(0, fuzzTile, msgs)
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), tc.want) || payload != nil {
			t.Errorf("compositeTile %s: err = %v with %d payload bytes, want an error mentioning %q", tc.name, err, len(payload), tc.want)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= uint64(fuzzTile.NumPixels())*uint64(unsafe.Sizeof(img.RGBA{})) {
			t.Errorf("compositeTile %s: refused after allocating %d bytes, an accumulator's worth", tc.name, grew)
		}
		if !bytes.Equal(msgs[0], dense) || !bytes.Equal(msgs[1], tc.msg) || !bytes.Equal(msgs[2], active) {
			t.Errorf("compositeTile %s: a refused tile changed its messages", tc.name)
		}
		for _, b := range held {
			img.Pixels.Put(b)
		}
	}
	for i, msg := range fuzzSeeds() {
		if err := blendFragment(makeSub(fuzzTile, 0.7, 99).Pix, fuzzTile, msg, img.UnderWire); err != nil {
			t.Errorf("seed %d refused: %v", i, err)
		}
	}
}

// placeOps are the two operations the fragment decoder runs under.
var placeOps = []struct {
	name string
	fn   func([]img.RGBA, []byte)
}{{"blend", img.UnderWire}, {"place", img.GetPixels}}

// runMask marks the pixels of msg's rectangle, row-major, that its runs
// cover: every one for a dense fragment. It reads the run table itself,
// sharing no code with the decoder, and expects a checked message.
func runMask(msg []byte) []bool {
	rect := img.Rect{X0: int(getI64(msg[16:])), Y0: int(getI64(msg[24:])), X1: int(getI64(msg[32:])), Y1: int(getI64(msg[40:]))}
	mask := make([]bool, rect.NumPixels())
	if getI64(msg[8:]) == fragDense {
		for i := range mask {
			mask[i] = true
		}
		return mask
	}
	for r := 0; r < int(getI64(msg[fragHeadBytes:])); r++ {
		for i := getI64(msg[fragHeadBytes+8+16*r:]); i < getI64(msg[fragHeadBytes+16+16*r:]); i++ {
			mask[i] = true
		}
	}
	return mask
}

// FuzzBlendFragment feeds arbitrary bytes to the fragment decoder under
// both of its operations: it never panics, blending and placing accept
// or refuse the same messages, a refused message writes nothing, and an
// accepted one writes only the pixels its runs cover — placing gives
// each of them the message's pixel bit for bit.
func FuzzBlendFragment(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	tw := fuzzTile.W()
	f.Fuzz(func(t *testing.T, msg []byte) {
		before := makeSub(fuzzTile, 0.7, 99).Pix
		blended := append([]img.RGBA(nil), before...)
		placed := append([]img.RGBA(nil), before...)
		errB := blendFragment(blended, fuzzTile, msg, img.UnderWire)
		errP := blendFragment(placed, fuzzTile, msg, img.GetPixels)
		if (errB == nil) != (errP == nil) {
			t.Fatalf("blend says %v, place says %v", errB, errP)
		}
		// Bit patterns, so a NaN the message put there counts as written.
		bits := func(pix []img.RGBA, i int) string { return string(pixelBytes(pix[i : i+1])) }
		if errB != nil {
			if string(pixelBytes(blended)) != string(pixelBytes(before)) || string(pixelBytes(placed)) != string(pixelBytes(before)) {
				t.Fatalf("refused (%v) but the pixels changed", errB)
			}
			return
		}
		frag := decodeFragment(msg)
		mask := runMask(msg)
		for i := range before {
			x, y := fuzzTile.X0+i%tw, fuzzTile.Y0+i/tw
			inside := x >= frag.rect.X0 && x < frag.rect.X1 && y >= frag.rect.Y0 && y < frag.rect.Y1
			k := (y-frag.rect.Y0)*frag.rect.W() + x - frag.rect.X0
			if !(inside && mask[k]) {
				if bits(blended, i) != bits(before, i) || bits(placed, i) != bits(before, i) {
					t.Fatalf("accepted message with rectangle %v wrote pixel (%d, %d) outside its runs", frag.rect, x, y)
				}
			} else if bits(placed, i) != bits(frag.pix, k) {
				t.Fatalf("placed pixel (%d, %d) = %+v, the message carries %+v", x, y, placed[i], frag.pix[k])
			}
		}
	})
}

// takeEveryPixelBuffer takes img.Pixels buffers of n pixels until one is
// a fresh allocation, so that the recycler holds none of that size, and
// returns them for the caller to release.
func takeEveryPixelBuffer(n int) [][]img.RGBA {
	var held [][]img.RGBA
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b := img.Pixels.Get(n)
		runtime.ReadMemStats(&m1)
		held = append(held, b)
		if m1.TotalAlloc-m0.TotalAlloc >= uint64(n)*uint64(unsafe.Sizeof(img.RGBA{})) {
			return held
		}
	}
}
