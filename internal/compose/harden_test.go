package compose

import (
	"bytes"
	"strings"
	"testing"

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
		if err := blendFragment(acc, ov, want); err != nil {
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
		acc := makeSub(fuzzTile, 0.7, 99).Pix
		before := append([]img.RGBA(nil), acc...)
		err := blendFragment(acc, fuzzTile, tc.msg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if string(pixelBytes(acc)) != string(pixelBytes(before)) {
			t.Errorf("%s: a refused message changed the accumulator", tc.name)
		}
	}
	for i, msg := range fuzzSeeds() {
		if err := blendFragment(makeSub(fuzzTile, 0.7, 99).Pix, fuzzTile, msg); err != nil {
			t.Errorf("seed %d refused: %v", i, err)
		}
	}
}

// FuzzBlendFragment feeds arbitrary bytes to the compositor's decoder:
// it never panics, and a message it accepts writes only inside the
// rectangle its header names.
func FuzzBlendFragment(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	tw := fuzzTile.W()
	f.Fuzz(func(t *testing.T, msg []byte) {
		acc := makeSub(fuzzTile, 0.7, 99).Pix
		before := append([]img.RGBA(nil), acc...)
		if err := blendFragment(acc, fuzzTile, msg); err != nil {
			if string(pixelBytes(acc)) != string(pixelBytes(before)) {
				t.Fatalf("refused (%v) but the accumulator changed", err)
			}
			return
		}
		rect := img.Rect{X0: int(getI64(msg[16:])), Y0: int(getI64(msg[24:])), X1: int(getI64(msg[32:])), Y1: int(getI64(msg[40:]))}
		for i := range acc {
			x, y := fuzzTile.X0+i%tw, fuzzTile.Y0+i/tw
			inside := x >= rect.X0 && x < rect.X1 && y >= rect.Y0 && y < rect.Y1
			// Bit patterns, so a NaN the message put there counts as written.
			if !inside && string(pixelBytes(acc[i:i+1])) != string(pixelBytes(before[i:i+1])) {
				t.Fatalf("accepted message with rectangle %v wrote pixel (%d, %d)", rect, x, y)
			}
		}
	})
}
