package vfile

import (
	"fmt"
	"os"
)

// OSRWFile adapts an *os.File for reading and writing.
type OSRWFile struct {
	f *os.File
}

// Create creates (or truncates) path for read/write access.
func Create(path string) (*OSRWFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &OSRWFile{f: f}, nil
}

// ReadAt implements io.ReaderAt.
func (o *OSRWFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (o *OSRWFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }

// Size returns the current file size.
func (o *OSRWFile) Size() int64 {
	st, err := o.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Truncate sets the file size (used to preallocate the output of a
// parallel write).
func (o *OSRWFile) Truncate(n int64) error { return o.f.Truncate(n) }

// Close closes the underlying file.
func (o *OSRWFile) Close() error { return o.f.Close() }

// WriteAt implements io.WriterAt for MemFile, growing the buffer as
// needed.
func (m *MemFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vfile: negative offset %d", off)
	}
	if need := off + int64(len(p)); need > int64(len(m.Data)) {
		grown := make([]byte, need)
		copy(grown, m.Data)
		m.Data = grown
	}
	copy(m.Data[off:], p)
	return len(p), nil
}
