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
// reaches each byte — are at or below v, which encode counts by binary
// search: eight comparisons.
type srgb8Table struct {
	thr [256]float64 // thr[b] for b = 1..255; thr[0] = 0
}

// srgb8s builds the table from srgb8 itself, each threshold by
// bisection over the bit patterns of (0, 1], which order like their
// values.
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
	return t
})

// encode is srgb8(v). Every threshold is in (0, 1], so v <= 0 and a NaN
// pass none and v >= 1 passes all.
func (t *srgb8Table) encode(v float64) byte {
	b := 0
	for s := 128; s > 0; s >>= 1 {
		if v >= t.thr[b+s] {
			b += s
		}
	}
	return byte(b)
}

// EncodePPM writes the image as a binary PPM (P6) over a given
// background gray level (0..1). Premultiplied pixels are composited over
// the background before gamma encoding.
func (m *Image) EncodePPM(w io.Writer, background float64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", m.W, m.H); err != nil {
		return err
	}
	buf := make([]byte, 0, 3*m.W)
	tab := srgb8s()
	for y := 0; y < m.H; y++ {
		buf = buf[:0]
		for x := 0; x < m.W; x++ {
			p := m.At(x, y)
			t := 1 - float64(p.A)
			buf = append(buf,
				tab.encode(float64(p.R)+t*background),
				tab.encode(float64(p.G)+t*background),
				tab.encode(float64(p.B)+t*background))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
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
