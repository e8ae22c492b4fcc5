package netcdf

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
)

// FuzzDecodeHeader hands arbitrary bytes to the header decoder as a file
// (ReadHeader over a vfile.MemFile) and, when they decode, plans and
// reads a 3 x 3 x 3 corner of every 3D variable the header declares.
// Errors are fine; a panic is not, and neither is an allocation the
// input's length and the corner do not account for. The seeds are whole
// files of the three classic versions, record and fixed, and the same
// files with a hostile dimension count, begin offset or variable size.
func FuzzDecodeHeader(f *testing.F) {
	dir := f.TempDir()
	for i, c := range []struct {
		v      Version
		record bool
	}{{V2, true}, {V5, false}, {V1, true}, {V1, false}} {
		nf, err := NewVolumeFile(c.v, grid.I(5, 4, 3), []string{"pressure", "density"}, c.record)
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(dir, "seed"+string(rune('0'+i)))
		gen := func(_ int, rec int64) []float32 {
			if rec >= 0 {
				return make([]float32, 5*4) // one record: an XY plane
			}
			return make([]float32, 5*4*3)
		}
		if err := WriteFile(path, nf, gen); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// The header starts with the magic, the record count and the
		// dimension list's tag and count, and ends with the last
		// variable's vsize and begin.
		hostile := func(patch func(h []byte)) {
			m := append([]byte(nil), b...)
			patch(m)
			f.Add(m)
		}
		hdr := len(EncodeHeader(nf))
		size, offset := 4, 8 // nonNeg and offset widths
		switch c.v {
		case V1:
			offset = 4
		case V5:
			size = 8
		}
		hostile(func(m []byte) { putN(m[4+size+4:], size, 1<<30) })        // dimension count
		hostile(func(m []byte) { putN(m[hdr-offset:], offset, 1<<30) })    // begin past EOF
		hostile(func(m []byte) { putN(m[hdr-offset-size:], size, -1) })    // vsize
		hostile(func(m []byte) { putN(m[hdr-offset-size:], size, 1<<40) }) // vsize x records overflows
	}
	corner := grid.Ext(grid.I(0, 0, 0), grid.I(3, 3, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mf := &vfile.MemFile{Data: b}
		h, err := ReadHeader(mf)
		if err == nil {
			for i := range h.Vars {
				if v := &h.Vars[i]; len(v.DimIDs) == 3 {
					h.VarRuns(v, corner)
					ReadVarExtent(mf, h, v, corner)
				}
			}
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(b))+1<<20 {
			t.Fatalf("%d-byte input allocated %d bytes", len(b), n)
		}
	})
}

// putN writes x big-endian into the first n (4 or 8) bytes of b.
func putN(b []byte, n int, x int64) {
	if n == 8 {
		binary.BigEndian.PutUint64(b, uint64(x))
		return
	}
	binary.BigEndian.PutUint32(b, uint32(x))
}
