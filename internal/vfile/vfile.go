// Package vfile abstracts the file that the I/O stack reads: a real
// on-disk file in real mode, or an in-memory one in tests. A tracing wrapper logs every physical
// access so that identical code paths feed both the Fig 9/10 analyses
// and the storage timing model.
package vfile

import (
	"fmt"
	"io"
	"os"

	"bgpvr/internal/grid"
	"bgpvr/internal/iotrace"
)

// File is the read-side interface the I/O stack consumes. ReadAt
// follows io.ReaderAt semantics.
type File interface {
	io.ReaderAt
	Size() int64
}

// OSFile adapts an *os.File.
type OSFile struct {
	f    *os.File
	size int64
}

// Open opens path for reading.
func Open(path string) (*OSFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &OSFile{f: f, size: st.Size()}, nil
}

// ReadAt implements io.ReaderAt.
func (o *OSFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

// Size returns the file size in bytes.
func (o *OSFile) Size() int64 { return o.size }

// Close closes the underlying file.
func (o *OSFile) Close() error { return o.f.Close() }

// MemFile is an in-memory File, convenient for format round-trip tests.
type MemFile struct {
	Data []byte
}

// ReadAt implements io.ReaderAt.
func (m *MemFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vfile: negative offset %d", off)
	}
	if off >= int64(len(m.Data)) {
		return 0, io.EOF
	}
	n := copy(p, m.Data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the buffer length.
func (m *MemFile) Size() int64 { return int64(len(m.Data)) }

// Traced wraps a File so that every ReadAt is recorded in the log.
type Traced struct {
	F   File
	Log *iotrace.Log
}

// NewTraced wraps f with a fresh access log.
func NewTraced(f File) *Traced {
	return &Traced{F: f, Log: &iotrace.Log{}}
}

// ReadAt implements io.ReaderAt, logging the access before performing it.
func (t *Traced) ReadAt(p []byte, off int64) (int, error) {
	t.Log.Record(off, int64(len(p)))
	return t.F.ReadAt(p, off)
}

// Size returns the wrapped file's size.
func (t *Traced) Size() int64 { return t.F.Size() }

// ReadFull reads exactly len(p) bytes at off. Every data read in the
// I/O stack goes through it, into scratch buffers that are reused from
// window to window and, for the collective buffer, from call to call —
// so a short read is an error (wrapping io.ErrUnexpectedEOF), never a
// buffer whose tail still holds an earlier read's bytes.
func ReadFull(f File, p []byte, off int64) error {
	n, err := f.ReadAt(p, off)
	if n == len(p) {
		return nil // io.ReaderAt may report io.EOF with a full read at the end
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("vfile: read %d of %d bytes at %d: %w", n, len(p), off, err)
}

// ReadRuns reads the given offset-sorted runs and writes their bytes, in
// order, to w — the one loop behind every independent read. Consecutive
// runs separated by holes of at most sieveHole bytes are fetched in one
// contiguous access (data sieving: the hole bytes are read and
// discarded); sieveHole = 0 reads each run exactly. Runs out of order,
// or of a negative offset or length, are an error: they come from a
// corrupt header, and the loop below would index out of its buffer.
func ReadRuns(f File, runs []grid.Run, sieveHole int64, w io.Writer) error {
	for i, r := range runs {
		if r.Offset < 0 || r.End() < r.Offset || i > 0 && r.Offset < runs[i-1].Offset {
			return fmt.Errorf("vfile: run %d %+v is out of order or negative", i, r)
		}
	}
	var buf []byte
	for i := 0; i < len(runs); {
		j := i
		lo, hi := runs[i].Offset, runs[i].End()
		for j+1 < len(runs) && runs[j+1].Offset-hi <= sieveHole {
			j++
			hi = max(hi, runs[j].End())
		}
		if int64(cap(buf)) < hi-lo {
			buf = make([]byte, hi-lo)
		}
		b := buf[:hi-lo]
		if err := ReadFull(f, b, lo); err != nil {
			return err
		}
		for _, r := range runs[i : j+1] {
			if _, err := w.Write(b[r.Offset-lo : r.End()-lo]); err != nil {
				return err
			}
		}
		i = j + 1
	}
	return nil
}
