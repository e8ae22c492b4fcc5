package vfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bgpvr/internal/grid"
)

func TestMemFileReadAt(t *testing.T) {
	m := &MemFile{Data: []byte("0123456789")}
	if m.Size() != 10 {
		t.Fatalf("size = %d", m.Size())
	}
	p := make([]byte, 4)
	n, err := m.ReadAt(p, 3)
	if err != nil || n != 4 || string(p) != "3456" {
		t.Errorf("ReadAt = %d, %v, %q", n, err, p)
	}
	// Short read at EOF.
	n, err = m.ReadAt(p, 8)
	if err != io.EOF || n != 2 || string(p[:n]) != "89" {
		t.Errorf("short read = %d, %v, %q", n, err, p[:n])
	}
	if _, err := m.ReadAt(p, 100); err != io.EOF {
		t.Errorf("past-EOF err = %v", err)
	}
	if _, err := m.ReadAt(p, -1); err == nil {
		t.Error("negative offset should error")
	}
}

func TestOSFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 11 {
		t.Errorf("size = %d", f.Size())
	}
	p := make([]byte, 5)
	if _, err := f.ReadAt(p, 6); err != nil || string(p) != "world" {
		t.Errorf("ReadAt = %q, %v", p, err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should error")
	}
}

func TestTracedLogsAccesses(t *testing.T) {
	m := &MemFile{Data: bytes.Repeat([]byte{7}, 64)}
	tr := NewTraced(m)
	p := make([]byte, 8)
	tr.ReadAt(p, 0)
	tr.ReadAt(p, 32)
	if tr.Size() != 64 {
		t.Errorf("size = %d", tr.Size())
	}
	acc := tr.Log.Accesses()
	if len(acc) != 2 || acc[0].Offset != 0 || acc[1].Offset != 32 || acc[1].Length != 8 {
		t.Errorf("log = %v", acc)
	}
	if p[0] != 7 {
		t.Error("data not passed through")
	}
}

func TestFaultyFile(t *testing.T) {
	base := &MemFile{Data: []byte("0123456789")}
	f := &FaultyFile{F: base, FailAfter: 2}
	p := make([]byte, 2)
	if _, err := f.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(p, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(p, 4); err != ErrInjected {
		t.Errorf("third read err = %v, want ErrInjected", err)
	}
	if f.Size() != 10 {
		t.Errorf("size = %d", f.Size())
	}
}

func TestOSRWFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.bin")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(64); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abc"), 10); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 3)
	if _, err := f.ReadAt(p, 10); err != nil || string(p) != "abc" {
		t.Errorf("read back %q, %v", p, err)
	}
	if f.Size() != 64 {
		t.Errorf("size = %d", f.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemFileWriteAtGrows(t *testing.T) {
	m := &MemFile{}
	if _, err := m.WriteAt([]byte("xyz"), 5); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 8 || m.Data[5] != 'x' {
		t.Errorf("grown mem file wrong: %q", m.Data)
	}
	if _, err := m.WriteAt([]byte("a"), -1); err == nil {
		t.Error("negative offset accepted")
	}
}

// eofAtEnd reports io.EOF together with a read that reaches the end of
// the file, as io.ReaderAt allows (and *os.File does not).
type eofAtEnd struct{ *MemFile }

func (e eofAtEnd) ReadAt(p []byte, off int64) (int, error) {
	n, err := e.MemFile.ReadAt(p, off)
	if err == nil && off+int64(n) == e.Size() {
		err = io.EOF
	}
	return n, err
}

// ReadFull is exact or an error: a read that ends at the end of the file
// succeeds whether or not the file reports io.EOF with it, a short one
// wraps io.ErrUnexpectedEOF, and a storage error comes through.
func TestReadFull(t *testing.T) {
	m := &MemFile{Data: []byte("0123456789")}
	for _, f := range []File{m, eofAtEnd{m}} {
		b := make([]byte, 4)
		if err := ReadFull(f, b, 6); err != nil || string(b) != "6789" {
			t.Errorf("%T: read to the end = %q, %v", f, b, err)
		}
		for _, off := range []int64{7, 10, 50} {
			if err := ReadFull(f, b, off); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%T: 4 bytes at %d of 10: err = %v, want io.ErrUnexpectedEOF", f, off, err)
			}
		}
	}
	if err := ReadFull(&FaultyFile{F: m}, make([]byte, 1), 0); !errors.Is(err, ErrInjected) {
		t.Errorf("injected fault: err = %v", err)
	}
}

// ReadRuns delivers exactly the runs' bytes, in order, through a scratch
// buffer it reuses — so a later, shorter access must not leak an
// earlier one's tail.
func TestReadRunsReusesScratch(t *testing.T) {
	m := &MemFile{Data: []byte("abcdefghijklmnopqrstuvwxyz")}
	runs := []grid.Run{{Offset: 0, Length: 8}, {Offset: 10, Length: 2}, {Offset: 13, Length: 1}, {Offset: 24, Length: 2}}
	for hole, accesses := range map[int64]int{0: 4, 1: 3, 100: 1} {
		tr := NewTraced(m)
		var got bytes.Buffer
		if err := ReadRuns(tr, runs, hole, &got); err != nil || got.String() != "abcdefghklnyz" {
			t.Errorf("hole %d: %q, %v", hole, got.String(), err)
		}
		if n := len(tr.Log.Accesses()); n != accesses {
			t.Errorf("hole %d: %d accesses, want %d", hole, n, accesses)
		}
	}
	short := append(runs, grid.Run{Offset: 25, Length: 2})
	if err := ReadRuns(m, short, 0, io.Discard); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("run past the end: err = %v", err)
	}
}
