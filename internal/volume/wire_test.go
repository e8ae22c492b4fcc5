package volume

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// wireFloats is a seeded row with the values a codec can get wrong:
// negative zero, a NaN and a denormal among ordinary ones.
func wireFloats(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2e3 - 1e3
	}
	v[1], v[2], v[3] = float32(math.Copysign(0, -1)), float32(math.NaN()), math.SmallestNonzeroFloat32
	return v
}

func sameFloatBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// The wire form is four bytes a sample in the stated order, and decoding
// returns the exact bit patterns.
func TestFloatWireRoundTrip(t *testing.T) {
	vals := wireFloats(37, 1)
	for order, bo := range map[ByteOrder]binary.ByteOrder{LittleEndian: binary.LittleEndian, BigEndian: binary.BigEndian} {
		wire := make([]byte, WireFloatBytes*len(vals)+5) // room to spare is left alone
		PutFloats(wire, vals, order)
		for i, v := range vals {
			if got := bo.Uint32(wire[WireFloatBytes*i:]); got != math.Float32bits(v) {
				t.Fatalf("%v sample %d: wire %#x, want %#x", bo, i, got, math.Float32bits(v))
			}
		}
		if string(wire[len(wire)-5:]) != "\x00\x00\x00\x00\x00" {
			t.Errorf("%v: PutFloats wrote past its samples", bo)
		}
		back := make([]float32, len(vals))
		GetFloats(back, wire, order)
		if !sameFloatBits(back, vals) {
			t.Errorf("%v: GetFloats(PutFloats(vals)) != vals", bo)
		}
	}
}

// A stream cut anywhere decodes as the whole: every pair of cuts, so
// segments start and end at every offset 0-3 within a sample, carry
// 0-3 bytes, and include pieces shorter than the carry's remainder.
func TestFloatDecoderCarry(t *testing.T) {
	vals := wireFloats(6, 2)
	for _, order := range []ByteOrder{LittleEndian, BigEndian} {
		wire := make([]byte, WireFloatBytes*len(vals))
		PutFloats(wire, vals, order)
		for i := 0; i <= len(wire); i++ {
			for j := i; j <= len(wire); j++ {
				got := make([]float32, len(vals))
				d := NewFloatDecoder(got, order)
				for _, seg := range [][]byte{wire[:i], wire[i:j], wire[j:]} {
					if n, err := d.Write(seg); n != len(seg) || err != nil {
						t.Fatalf("cuts %d,%d: Write = %d, %v", i, j, n, err)
					}
				}
				if err := d.Close(); err != nil {
					t.Fatalf("cuts %d,%d: %v", i, j, err)
				}
				if !sameFloatBits(got, vals) {
					t.Fatalf("order %d, cuts %d,%d: decoded %v, want %v", order, i, j, got, vals)
				}
			}
		}
	}
}

// One byte at a time is the longest carry chain there is.
func TestFloatDecoderByteAtATime(t *testing.T) {
	vals := wireFloats(9, 3)
	wire := make([]byte, WireFloatBytes*len(vals))
	PutFloats(wire, vals, BigEndian)
	got := make([]float32, len(vals))
	d := NewFloatDecoder(got, BigEndian)
	for i := range wire {
		if err := d.Close(); err == nil {
			t.Fatalf("Close accepted a stream %d bytes short", len(wire)-i)
		}
		d.Write(wire[i : i+1])
	}
	if err := d.Close(); err != nil || !sameFloatBits(got, vals) {
		t.Errorf("decoded %v (%v), want %v", got, err, vals)
	}
}

// A stream longer than the destination is refused whole, whether the
// excess comes with samples or onto a carry.
func TestFloatDecoderOverflow(t *testing.T) {
	got := make([]float32, 2)
	d := NewFloatDecoder(got, LittleEndian)
	if _, err := d.Write(make([]byte, 9)); err == nil {
		t.Error("9 bytes into 2 samples accepted")
	}
	d.Write(make([]byte, 6))
	if _, err := d.Write(make([]byte, 3)); err == nil {
		t.Error("3 bytes onto a carry with 2 to go accepted")
	}
	if _, err := d.Write(make([]byte, 2)); err != nil || d.Close() != nil {
		t.Error("exact fill refused")
	}
}

// Decoding allocates nothing beyond the decoder itself.
func TestFloatDecoderAllocations(t *testing.T) {
	vals := wireFloats(1<<10, 4)
	wire := make([]byte, WireFloatBytes*len(vals))
	PutFloats(wire, vals, BigEndian)
	got := make([]float32, len(vals))
	if n := testing.AllocsPerRun(20, func() {
		d := NewFloatDecoder(got, BigEndian)
		d.Write(wire[:1001])
		d.Write(wire[1001:])
		if d.Close() != nil {
			t.Fatal("short")
		}
	}); n > 1 {
		t.Errorf("%v allocations a decode, want at most the decoder", n)
	}
}

// BenchmarkFloatCodec times the codec both ways and the streaming
// decoder over odd-sized segments, in ns per sample.
func BenchmarkFloatCodec(b *testing.B) {
	const n = 1 << 18
	vals, got := wireFloats(n, 5), make([]float32, n)
	wire := make([]byte, WireFloatBytes*n)
	for _, order := range []struct {
		name  string
		order ByteOrder
	}{{"le", LittleEndian}, {"be", BigEndian}} {
		PutFloats(wire, vals, order.order)
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"encode", func() { PutFloats(wire, vals, order.order) }},
			{"decode", func() { GetFloats(got, wire, order.order) }},
			{"decode-stream", func() {
				d := NewFloatDecoder(got, order.order)
				for seg := wire; len(seg) > 0; {
					k := min(len(seg), 4093) // a row and a bit: every segment ends mid-sample
					d.Write(seg[:k])
					seg = seg[k:]
				}
			}},
		} {
			b.Run(order.name+"/"+op.name, func(b *testing.B) {
				b.SetBytes(WireFloatBytes * n)
				for i := 0; i < b.N; i++ {
					op.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/sample")
			})
		}
	}
}
