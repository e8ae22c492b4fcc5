package h5lite

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
)

// FuzzOpen hands arbitrary bytes to Open as a vfile.MemFile and, when
// they open, reads a 3 x 3 x 3 corner of every dataset. Errors are fine;
// a panic is not, and neither is an allocation the input's length and
// the corner do not account for. The seeds are a real two-dataset file
// and the same file with a hostile dataset count, symbol-table offset,
// or first dataset's dimensions and data offset.
func FuzzOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.h5l")
	dims := grid.I(5, 4, 3)
	if err := Write(path, dims, []string{"pressure", "density"}, func(v, x, y, z int) float32 { return float32(v + x + y + z) }); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	lf, hdrOff, _, err := layoutWithMeta(dims, []string{"pressure", "density"})
	if err != nil {
		f.Fatal(err)
	}
	// The first object header: name, rank, Z/Y/X, dtype, data offset.
	hdr := int(hdrOff[0]) + 4 + len(lf.Datasets[0].Name)
	for _, p := range []struct {
		at int
		x  uint64
	}{
		{12, 1 << 20},                            // dataset count
		{16, uint64(len(b)) + 8},                 // symbol table past EOF
		{hdr + 4, 1 << 62},                       // Z far past EOF
		{hdr + 12, 1 << 62},                      // a row's offset overflows
		{hdr + 4 + 24 + 4, uint64(len(b)) << 10}, // data past EOF
	} {
		m := append([]byte(nil), b...)
		if p.at == 12 {
			binary.LittleEndian.PutUint32(m[p.at:], uint32(p.x))
		} else {
			binary.LittleEndian.PutUint64(m[p.at:], p.x)
		}
		f.Add(m)
	}
	corner := grid.Ext(grid.I(0, 0, 0), grid.I(3, 3, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mf := &vfile.MemFile{Data: b}
		if h, err := Open(mf); err == nil {
			for i := range h.Datasets {
				ReadExtent(mf, &h.Datasets[i], corner)
			}
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(b))+1<<20 {
			t.Fatalf("%d-byte input allocated %d bytes", len(b), n)
		}
	})
}
