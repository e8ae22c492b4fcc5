package img

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// srgb8 converts a linear premultiplied component (already divided by
// alpha where appropriate) to an 8-bit sRGB-ish value using a simple
// gamma of 2.2, clamped.
func srgb8(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return byte(math.Round(255 * math.Pow(v, 1/2.2)))
}

// srgb8Table is srgb8 without a Pow. srgb8 is monotone, so its byte
// for v is how many of its thresholds — the least float64 at which it
// reaches each byte — are at or below v. encode finds that count with
// one lookup and one comparison: idx holds the count at the bottom of
// each bucket of [2⁻²², 1), the buckets being the float64 exponent and
// the top idxBits of the mantissa, and no bucket holds two thresholds,
// so the count at v is the bucket's plus one if v has reached the next
// threshold.
type srgb8Table struct {
	thr [257]float64 // thr[b] for b = 1..255; thr[0] = 0, thr[256] = +Inf
	idx [idxLen]byte // idx[i] = srgb8 at the bottom of bucket i
}

const (
	idxBits  = 7                 // mantissa bits a bucket index keeps
	idxShift = 52 - idxBits      // drops the rest
	idxExp   = 1023 - 22         // biased exponent of 2⁻²², the lowest bucket's
	idxLo    = idxExp << idxBits // Float64bits(2⁻²²) >> idxShift
	idxLen   = 22 << idxBits     // 2,816 buckets, up to 1
	idxFloor = 0x1p-22           // below it srgb8 is 0
)

// srgb8s builds the table from srgb8 itself, each threshold by
// bisection over the bit patterns of (0, 1], which order like their
// values, and then the bucket counts by walking the thresholds. It
// panics if a bucket holds two thresholds, where one comparison would
// not settle the byte.
var srgb8s = sync.OnceValue(func() *srgb8Table {
	t := &srgb8Table{}
	for b := 1; b < 256; b++ {
		lo, hi := math.Float64bits(t.thr[b-1]), math.Float64bits(1) // srgb8 is below b at lo, reaches it at hi
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if srgb8(math.Float64frombits(mid)) >= byte(b) {
				hi = mid
			} else {
				lo = mid
			}
		}
		t.thr[b] = math.Float64frombits(hi)
	}
	t.thr[256] = math.Inf(1)
	if t.thr[1] < idxFloor {
		panic("img: srgb8 reaches 1 below the lowest bucket")
	}
	b := 0 // thresholds at or below the bucket's bottom
	for i := range t.idx {
		bottom := math.Float64frombits(uint64(idxLo+i) << idxShift)
		top := math.Float64frombits(uint64(idxLo+i+1) << idxShift)
		for t.thr[b+1] <= bottom {
			b++
		}
		t.idx[i] = byte(b)
		if b < 255 && t.thr[b+2] < top {
			panic(fmt.Sprintf("img: sRGB bucket [%v, %v) holds thresholds %d and %d", bottom, top, b+1, b+2))
		}
	}
	return t
})

// encode is srgb8(v). A v outside [2⁻²², 1) — below it, negative, NaN,
// at or past 1 — lands outside the index: 255 if v >= 1, else 0.
func (t *srgb8Table) encode(v float64) byte {
	i := math.Float64bits(v)>>idxShift - idxLo
	if i >= idxLen {
		if v >= 1 {
			return 255
		}
		return 0
	}
	b := t.idx[i]
	if v >= t.thr[int(b)+1] {
		b++
	}
	return b
}

// EncodePPM writes the image as a binary PPM (P6) over a given
// background gray level (0..1). Premultiplied pixels are composited over
// the background before gamma encoding.
func (m *Image) EncodePPM(w io.Writer, background float64) error {
	_, err := w.Write(m.PPM(background))
	return err
}

// PPM returns what EncodePPM writes, in a buffer of exactly its size.
func (m *Image) PPM(background float64) []byte {
	hdr := fmt.Sprintf("P6\n%d %d\n255\n", m.W, m.H)
	buf := append(make([]byte, 0, len(hdr)+3*len(m.Pix)), hdr...)
	tab := srgb8s()
	for _, p := range m.Pix {
		t := 1 - float64(p.A)
		buf = append(buf,
			tab.encode(float64(p.R)+t*background),
			tab.encode(float64(p.G)+t*background),
			tab.encode(float64(p.B)+t*background))
	}
	return buf
}

// WritePPM writes the image to a file path as PPM.
func (m *Image) WritePPM(path string, background float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.EncodePPM(f, background); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// EncodePGM writes a grayscale PGM (P5) from a [0,1] float field, used
// for access-pattern maps (Fig 9 analogue).
func EncodePGM(w io.Writer, width, height int, v []float64) error {
	if len(v) != width*height {
		return fmt.Errorf("img: EncodePGM needs %d values, got %d", width*height, len(v))
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", width, height); err != nil {
		return err
	}
	for _, x := range v {
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		if err := bw.WriteByte(byte(math.Round(255 * x))); err != nil {
			return err
		}
	}
	return bw.Flush()
}
