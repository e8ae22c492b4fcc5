// Package h5lite is a simplified HDF5-like container used to reproduce
// the paper's §V-B comparison ("we converted the netCDF file to HDF5 and
// retested"). It is not the real HDF5 format — implementing all of HDF5
// is out of scope — but it reproduces the two properties that matter to
// the I/O experiments:
//
//  1. each dataset's (variable's) data is stored contiguously, so a
//     single-variable read maps to a dense access pattern, unlike
//     interleaved netCDF record variables; and
//  2. opening the file costs a series of very small metadata accesses
//     ("every process performs 11 very small metadata accesses of no
//     more than 600 bytes"): a superblock, a symbol table, and one
//     object header plus one attribute block per dataset.
//
// The substitution is recorded in DESIGN.md. Data is little-endian, as
// in default HDF5 IEEE types.
package h5lite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// Magic identifies an h5lite file (deliberately different from real
// HDF5's signature so nothing mistakes one for the other).
var Magic = [8]byte{0x89, 'H', '5', 'L', '\r', '\n', 0x1a, '\n'}

const (
	superblockSize = 64
	// maxMetaBlock bounds each metadata structure, matching the "no more
	// than 600 bytes" observation.
	maxMetaBlock = 600
)

// Dataset describes one stored 3D float32 variable.
type Dataset struct {
	Name   string
	Dims   grid.IVec3 // X, Y, Z
	Offset int64      // file offset of the contiguous data
	Size   int64      // data bytes
	Attrs  map[string]string
}

// File is a parsed h5lite container.
type File struct {
	Datasets []Dataset
	// MetaAccesses is the number of metadata reads Open performed; the
	// I/O model charges these per process.
	MetaAccesses int
}

// DatasetByName finds a dataset.
func (f *File) DatasetByName(name string) (*Dataset, bool) {
	for i := range f.Datasets {
		if f.Datasets[i].Name == name {
			return &f.Datasets[i], true
		}
	}
	return nil, false
}

// AppendVarRuns appends the byte runs covering extent ext of the
// dataset to dst, which it grows at most once, and returns the extended
// list: a plain dense subarray flattening from the dataset's contiguous
// data.
func (d *Dataset) AppendVarRuns(dst []grid.Run, ext grid.Extent) []grid.Run {
	return grid.AppendRuns(dst, d.Dims, ext, 4, d.Offset)
}

// encodeObjectHeader serializes one dataset's object header.
func encodeObjectHeader(d *Dataset, attrOff int64) []byte {
	var b bytes.Buffer
	writeStr(&b, d.Name)
	binary.Write(&b, binary.LittleEndian, uint32(3)) // rank
	for _, n := range []int{d.Dims.Z, d.Dims.Y, d.Dims.X} {
		binary.Write(&b, binary.LittleEndian, uint64(n))
	}
	binary.Write(&b, binary.LittleEndian, uint32(0)) // dtype: float32 LE
	binary.Write(&b, binary.LittleEndian, uint64(d.Offset))
	binary.Write(&b, binary.LittleEndian, uint64(d.Size))
	binary.Write(&b, binary.LittleEndian, uint64(attrOff))
	return b.Bytes()
}

func writeStr(b *bytes.Buffer, s string) {
	binary.Write(b, binary.LittleEndian, uint32(len(s)))
	b.WriteString(s)
}

func readStr(r *bytes.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxMetaBlock {
		return "", fmt.Errorf("h5lite: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func encodeAttrs(attrs map[string]string) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(len(attrs)))
	// Deterministic order for reproducible files.
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeStr(&b, k)
		writeStr(&b, attrs[k])
	}
	return b.Bytes()
}

// Layout computes the container layout for the named float32 variables
// of a dims grid without touching any file: the superblock, then the
// symbol table and per-dataset metadata blocks, then each dataset's data
// contiguously, 8-byte aligned. The model-mode planner uses it to derive
// access patterns at scales where the file is never written.
func Layout(dims grid.IVec3, names []string) (*File, error) {
	f, _, _, err := layoutWithMeta(dims, names)
	return f, err
}

// layoutWithMeta also returns the per-dataset header and attribute block
// offsets Write needs.
func layoutWithMeta(dims grid.IVec3, names []string) (f *File, hdrOff, attrOff []int64, err error) {
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("h5lite: at least one dataset required")
	}
	datasets := make([]Dataset, len(names))
	attrBlocks := make([][]byte, len(names))
	for i, n := range names {
		datasets[i] = Dataset{
			Name: n, Dims: dims,
			Size:  dims.Count() * 4,
			Attrs: map[string]string{"units": "normalized", "kind": "volume"},
		}
		attrBlocks[i] = encodeAttrs(datasets[i].Attrs)
	}
	// Symbol table: per dataset, a name and the object header offset.
	// Metadata region layout: [superblock][symtab][hdr0][attr0][hdr1]...
	symtabSize := 4
	for _, n := range names {
		symtabSize += 4 + len(n) + 8
	}
	if symtabSize > maxMetaBlock {
		return nil, nil, nil, fmt.Errorf("h5lite: symbol table %d bytes exceeds metadata block limit", symtabSize)
	}
	hdrOff = make([]int64, len(names))
	attrOff = make([]int64, len(names))
	cur := int64(superblockSize + symtabSize)
	for i := range names {
		// Header size is stable: encode with placeholder offsets.
		h := encodeObjectHeader(&datasets[i], 0)
		if len(h) > maxMetaBlock {
			return nil, nil, nil, fmt.Errorf("h5lite: object header for %q exceeds %d bytes", names[i], maxMetaBlock)
		}
		hdrOff[i] = cur
		cur += int64(len(h))
		attrOff[i] = cur
		cur += int64(len(attrBlocks[i]))
	}
	dataStart := (cur + 7) &^ 7
	cur = dataStart
	for i := range datasets {
		datasets[i].Offset = cur
		cur += datasets[i].Size
	}
	return &File{Datasets: datasets}, hdrOff, attrOff, nil
}

// Write creates an h5lite file holding the named float32 variables of a
// dims grid, streaming values from gen(varIdx, x, y, z), in the layout
// computed by Layout.
func Write(path string, dims grid.IVec3, names []string, gen func(v, x, y, z int) float32) error {
	lf, hdrOff, attrOff, err := layoutWithMeta(dims, names)
	if err != nil {
		return err
	}
	datasets := lf.Datasets
	attrBlocks := make([][]byte, len(names))
	headers := make([][]byte, len(names))
	for i := range datasets {
		attrBlocks[i] = encodeAttrs(datasets[i].Attrs)
		headers[i] = encodeObjectHeader(&datasets[i], attrOff[i])
	}
	dataStart := datasets[0].Offset
	cur := datasets[len(datasets)-1].Offset + datasets[len(datasets)-1].Size

	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := newCountingWriter(out)
	fail := func(err error) error { out.Close(); return err }

	// Superblock.
	var sb bytes.Buffer
	sb.Write(Magic[:])
	binary.Write(&sb, binary.LittleEndian, uint32(1)) // version
	binary.Write(&sb, binary.LittleEndian, uint32(len(names)))
	binary.Write(&sb, binary.LittleEndian, uint64(superblockSize)) // symtab offset
	binary.Write(&sb, binary.LittleEndian, uint64(cur))            // file size
	for sb.Len() < superblockSize {
		sb.WriteByte(0)
	}
	if _, err := w.Write(sb.Bytes()); err != nil {
		return fail(err)
	}
	// Symbol table.
	var st bytes.Buffer
	binary.Write(&st, binary.LittleEndian, uint32(len(names)))
	for i, n := range names {
		writeStr(&st, n)
		binary.Write(&st, binary.LittleEndian, uint64(hdrOff[i]))
	}
	if _, err := w.Write(st.Bytes()); err != nil {
		return fail(err)
	}
	// Headers and attribute blocks.
	for i := range names {
		if _, err := w.Write(headers[i]); err != nil {
			return fail(err)
		}
		if _, err := w.Write(attrBlocks[i]); err != nil {
			return fail(err)
		}
	}
	// Alignment pad then data.
	for w.n < dataStart {
		if _, err := w.Write([]byte{0}); err != nil {
			return fail(err)
		}
	}
	row := make([]float32, dims.X)
	enc := make([]byte, volume.WireFloatBytes*dims.X)
	for v := range names {
		for z := 0; z < dims.Z; z++ {
			for y := 0; y < dims.Y; y++ {
				for x := range row {
					row[x] = gen(v, x, y, z)
				}
				volume.PutFloats(enc, row, volume.LittleEndian)
				if _, err := w.Write(enc); err != nil {
					return fail(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	return out.Close()
}

// Open parses the container, performing the characteristic small
// metadata reads: superblock, symbol table, and one object header and
// one attribute block per dataset.
func Open(f vfile.File) (*File, error) {
	sb := make([]byte, superblockSize)
	if _, err := f.ReadAt(sb, 0); err != nil && err != io.EOF {
		return nil, err
	}
	if !bytes.Equal(sb[:8], Magic[:]) {
		return nil, errors.New("h5lite: bad magic")
	}
	out := &File{MetaAccesses: 1}
	nsets := binary.LittleEndian.Uint32(sb[12:])
	symOff := int64(binary.LittleEndian.Uint64(sb[16:]))
	if nsets > 1024 {
		return nil, fmt.Errorf("h5lite: unreasonable dataset count %d", nsets)
	}
	symtab := make([]byte, maxMetaBlock)
	n, err := f.ReadAt(symtab, symOff)
	if err != nil && err != io.EOF {
		return nil, err
	}
	out.MetaAccesses++
	r := bytes.NewReader(symtab[:n])
	var cnt uint32
	if err := binary.Read(r, binary.LittleEndian, &cnt); err != nil {
		return nil, err
	}
	if cnt != nsets {
		return nil, fmt.Errorf("h5lite: symbol table count %d != superblock %d", cnt, nsets)
	}
	type entry struct {
		name string
		off  int64
	}
	entries := make([]entry, cnt)
	for i := range entries {
		nm, err := readStr(r)
		if err != nil {
			return nil, err
		}
		var off uint64
		if err := binary.Read(r, binary.LittleEndian, &off); err != nil {
			return nil, err
		}
		entries[i] = entry{nm, int64(off)}
	}
	for _, e := range entries {
		hb := make([]byte, maxMetaBlock)
		n, err := f.ReadAt(hb, e.off)
		if err != nil && err != io.EOF {
			return nil, err
		}
		out.MetaAccesses++
		hr := bytes.NewReader(hb[:n])
		nm, err := readStr(hr)
		if err != nil {
			return nil, err
		}
		if nm != e.name {
			return nil, fmt.Errorf("h5lite: header name %q != symtab %q", nm, e.name)
		}
		var rank uint32
		if err := binary.Read(hr, binary.LittleEndian, &rank); err != nil {
			return nil, err
		}
		if rank != 3 {
			return nil, fmt.Errorf("h5lite: dataset %q rank %d unsupported", nm, rank)
		}
		var zyx [3]uint64
		for i := range zyx {
			if err := binary.Read(hr, binary.LittleEndian, &zyx[i]); err != nil {
				return nil, err
			}
		}
		var dtype uint32
		var dataOff, dataSize, attrOff uint64
		if err := binary.Read(hr, binary.LittleEndian, &dtype); err != nil {
			return nil, err
		}
		binary.Read(hr, binary.LittleEndian, &dataOff)
		binary.Read(hr, binary.LittleEndian, &dataSize)
		if err := binary.Read(hr, binary.LittleEndian, &attrOff); err != nil {
			return nil, err
		}
		ds := Dataset{
			Name:   nm,
			Dims:   grid.IVec3{X: int(zyx[2]), Y: int(zyx[1]), Z: int(zyx[0])},
			Offset: int64(dataOff),
			Size:   int64(dataSize),
			Attrs:  map[string]string{},
		}
		// Attribute block.
		ab := make([]byte, maxMetaBlock)
		an, err := f.ReadAt(ab, int64(attrOff))
		if err != nil && err != io.EOF {
			return nil, err
		}
		out.MetaAccesses++
		ar := bytes.NewReader(ab[:an])
		var acnt uint32
		if err := binary.Read(ar, binary.LittleEndian, &acnt); err != nil {
			return nil, err
		}
		for i := uint32(0); i < acnt; i++ {
			k, err := readStr(ar)
			if err != nil {
				return nil, err
			}
			v, err := readStr(ar)
			if err != nil {
				return nil, err
			}
			ds.Attrs[k] = v
		}
		out.Datasets = append(out.Datasets, ds)
	}
	return out, nil
}

// ReadExtent reads the subvolume ext of dataset d into a Field.
func ReadExtent(f vfile.File, d *Dataset, ext grid.Extent) (*volume.Field, error) {
	ext = ext.Intersect(grid.WholeGrid(d.Dims))
	fld := volume.NewField(d.Dims, ext)
	dec := volume.NewFloatDecoder(fld.Data, volume.LittleEndian)
	if err := vfile.ReadRuns(f, d.AppendVarRuns(nil, ext), 0, dec); err != nil {
		return nil, fmt.Errorf("h5lite: %w", err)
	}
	if err := dec.Close(); err != nil {
		return nil, fmt.Errorf("h5lite: %w", err)
	}
	return fld, nil
}

// countingWriter tracks bytes written through a buffered writer.
type countingWriter struct {
	w *bufferedWriter
	n int64
}

type bufferedWriter struct {
	f   *os.File
	buf []byte
}

func newCountingWriter(f *os.File) *countingWriter {
	return &countingWriter{w: &bufferedWriter{f: f, buf: make([]byte, 0, 1<<20)}}
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	c.w.buf = append(c.w.buf, p...)
	if len(c.w.buf) >= 1<<20 {
		if _, err := c.w.f.Write(c.w.buf); err != nil {
			return 0, err
		}
		c.w.buf = c.w.buf[:0]
	}
	return len(p), nil
}

func (c *countingWriter) Flush() error {
	if len(c.w.buf) > 0 {
		if _, err := c.w.f.Write(c.w.buf); err != nil {
			return err
		}
		c.w.buf = c.w.buf[:0]
	}
	return nil
}
