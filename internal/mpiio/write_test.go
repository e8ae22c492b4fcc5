package mpiio

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/vfile"
)

// loggedWrites records every write a collective write issues.
type loggedWrites struct {
	*vfile.MemFile
	log iotrace.Log
}

func (l *loggedWrites) WriteAt(p []byte, off int64) (int, error) {
	l.log.Record(off, int64(len(p)))
	return l.MemFile.WriteAt(p, off)
}

func TestCollectiveWriteMatchesDirect(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for _, hints := range []Hints{
			{CBBufferSize: 256, CBNodes: 1},
			{CBBufferSize: 4096, CBNodes: 4},
		} {
			rng := rand.New(rand.NewSource(int64(p)*7 + hints.CBBufferSize))
			const fileSize = 1 << 15
			// Disjoint per-rank runs: slice the file into strided chunks.
			reqs := make([][]grid.Run, p)
			datas := make([][]byte, p)
			want := make([]byte, fileSize)
			for off := int64(0); off < fileSize; off += 512 {
				r := rng.Intn(p)
				l := int64(256 + rng.Intn(128))
				if off+l > fileSize {
					l = fileSize - off
				}
				reqs[r] = append(reqs[r], grid.Run{Offset: off, Length: l})
				chunk := make([]byte, l)
				rng.Read(chunk)
				datas[r] = append(datas[r], chunk...)
				copy(want[off:], chunk)
			}
			got := &vfile.MemFile{Data: make([]byte, fileSize)}
			w := comm.NewWorld(p)
			err := w.Run(func(c *comm.Comm) error {
				return CollectiveWrite(c, got, reqs[c.Rank()], datas[c.Rank()], hints)
			})
			if err != nil {
				t.Fatalf("p=%d hints=%+v: %v", p, hints, err)
			}
			if !bytes.Equal(got.Data, want) {
				t.Fatalf("p=%d hints=%+v: file content mismatch", p, hints)
			}
		}
	}
}

func TestCollectiveWriteCoalesces(t *testing.T) {
	// Adjacent fragments from different ranks merge into few writes.
	const p = 4
	reqs := make([][]grid.Run, p)
	datas := make([][]byte, p)
	for i := 0; i < 64; i++ {
		r := i % p
		reqs[r] = append(reqs[r], grid.Run{Offset: int64(i * 100), Length: 100})
		datas[r] = append(datas[r], bytes.Repeat([]byte{byte(i)}, 100)...)
	}
	mem := &vfile.MemFile{Data: make([]byte, 6400)}
	tr := &loggedWrites{MemFile: mem}
	w := comm.NewWorld(p)
	err := w.Run(func(c *comm.Comm) error {
		return CollectiveWrite(c, tr, reqs[c.Rank()], datas[c.Rank()], Hints{CBBufferSize: 1 << 20, CBNodes: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.log.Accesses()); n != 1 {
		t.Errorf("expected 1 coalesced write, got %d", n)
	}
	for i := 0; i < 6400; i++ {
		if mem.Data[i] != byte(i/100) {
			t.Fatalf("byte %d = %d", i, mem.Data[i])
		}
	}
}

func TestCollectiveWriteWindowBoundsWrites(t *testing.T) {
	const p = 2
	reqs := [][]grid.Run{{{Offset: 0, Length: 4096}}, {{Offset: 4096, Length: 4096}}}
	datas := [][]byte{bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)}
	tr := &loggedWrites{MemFile: &vfile.MemFile{Data: make([]byte, 8192)}}
	w := comm.NewWorld(p)
	err := w.Run(func(c *comm.Comm) error {
		return CollectiveWrite(c, tr, reqs[c.Rank()], datas[c.Rank()], Hints{CBBufferSize: 1024, CBNodes: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tr.log.Accesses() {
		if a.Length > 1024 {
			t.Errorf("write of %d bytes exceeds the 1024-byte window", a.Length)
		}
	}
}

func TestCollectiveWriteSizeMismatch(t *testing.T) {
	w := comm.NewWorld(1)
	err := w.Run(func(c *comm.Comm) error {
		err := CollectiveWrite(c, &vfile.MemFile{}, []grid.Run{{Offset: 0, Length: 10}}, []byte{1}, Hints{})
		if err == nil {
			t.Error("size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveWriteAllEmpty(t *testing.T) {
	w := comm.NewWorld(3)
	err := w.Run(func(c *comm.Comm) error {
		return CollectiveWrite(c, &vfile.MemFile{}, nil, nil, Hints{CBNodes: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRWFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := vfile.Create(dir + "/x.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 50); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	if _, err := f.ReadAt(p, 50); err != nil || string(p) != "hello" {
		t.Errorf("read back %q, %v", p, err)
	}
	if f.Size() != 100 {
		t.Errorf("size = %d", f.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// The write-side twin of TestCollectiveReadSmallFileAllocation: the
// aggregator's staging buffer is sized to what it received, so writing
// a small file under the default 16 MB window must not cost 16 MB per
// aggregator per call.
func TestCollectiveWriteSmallFileAllocation(t *testing.T) {
	const p, size = 8, 1 << 16
	want := randomFile(size, 9).Data
	got := &vfile.MemFile{Data: make([]byte, size)}
	w := comm.NewWorld(p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.Run(func(c *comm.Comm) error {
		lo := c.Rank() * size / p
		run := grid.Run{Offset: int64(lo), Length: size / p}
		return CollectiveWrite(c, got, []grid.Run{run}, want[lo:lo+size/p], Hints{CBNodes: p})
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatal("file content mismatch")
	}
	// Outgoing fragments, the exchange and staging are each about the
	// file's size; 32x leaves room for the runtime's own goroutine and
	// channel allocations, and is 64x below one default window.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*size {
		t.Errorf("collective write of a %d-byte file allocated %d bytes (default window %d)",
			size, alloc, DefaultCBBufferSize)
	}
}
