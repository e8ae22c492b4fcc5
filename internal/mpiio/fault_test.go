package mpiio

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
)

// faultyLocked makes FaultyFile safe for the concurrent aggregators of a
// collective read.
type faultyLocked struct {
	mu sync.Mutex
	f  vfile.FaultyFile
}

func (l *faultyLocked) ReadAt(p []byte, off int64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.ReadAt(p, off)
}

func (l *faultyLocked) Size() int64 { return l.f.Size() }

// A storage fault during a collective read must surface as an error on
// the world, not hang the other ranks.
func TestCollectiveReadPropagatesFault(t *testing.T) {
	base := &vfile.MemFile{Data: make([]byte, 1<<14)}
	file := &faultyLocked{f: vfile.FaultyFile{F: base, FailAfter: 1}}
	const p = 4
	reqs := make([][]grid.Run, p)
	for r := range reqs {
		reqs[r] = []grid.Run{{Offset: int64(r * 2048), Length: 1024}}
	}
	w := comm.NewWorld(p)
	err := w.Run(func(c *comm.Comm) error {
		_, err := CollectiveRead(c, file, reqs[c.Rank()], Hints{CBBufferSize: 512, CBNodes: 4})
		return err
	})
	if err == nil {
		t.Fatal("fault not propagated")
	}
	if !errors.Is(err, vfile.ErrInjected) && err.Error() == "" {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestIndependentReadPropagatesFault(t *testing.T) {
	base := &vfile.MemFile{Data: make([]byte, 4096)}
	f := &vfile.FaultyFile{F: base, FailAfter: 0}
	if _, err := IndependentRead(f, []grid.Run{{Offset: 0, Length: 10}}, 0); !errors.Is(err, vfile.ErrInjected) {
		t.Errorf("err = %v", err)
	}
}

// A file shorter than the request is an error, not a silent mis-read:
// at f29ecc6 the aggregator accepted the short read of the last 1 KB
// window and scattered the reused buffer's tail — the previous window's
// bytes — with a nil error.
func TestTruncatedFileIsAnError(t *testing.T) {
	file := randomFile(3000, 8)
	runs := []grid.Run{{Offset: 0, Length: 4096}}
	err := comm.NewWorld(1).Run(func(c *comm.Comm) error {
		_, err := CollectiveRead(c, file, runs, Hints{CBBufferSize: 1024, CBNodes: 1})
		return err
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("collective: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := IndependentRead(file, runs, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("independent: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// The collective buffer is reused from call to call. Two different
// files read back to back through it, the second one shorter-windowed
// than the first so every read leaves the first file's bytes beyond it,
// must each come back byte-exact.
func TestCollectiveBufferReuseIsByteExact(t *testing.T) {
	const p = 4
	a, b := randomFile(1<<15, 9), randomFile(1<<14, 10)
	for i, tc := range []struct {
		file *vfile.MemFile
		h    Hints
	}{
		{a, Hints{CBNodes: 2}},
		{b, Hints{CBBufferSize: 700, CBNodes: 2}},
		{a, Hints{CBBufferSize: 3000, CBNodes: 3}},
		{b, Hints{CBNodes: 1}},
	} {
		// Strided requests, so windows hold unrequested bytes too.
		reqs := make([][]grid.Run, p)
		for off := int64(0); off+300 <= tc.file.Size(); off += 500 {
			r := int(off/500) % p
			reqs[r] = append(reqs[r], grid.Run{Offset: off, Length: 300})
		}
		err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
			got, err := CollectiveRead(c, tc.file, reqs[c.Rank()], tc.h)
			if err == nil && !bytes.Equal(got, directBytes(tc.file, reqs[c.Rank()])) {
				t.Errorf("read %d, rank %d: wrong bytes", i, c.Rank())
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A rank's request buffer goes back to the pool once its reply exchange
// returns, and the pool poisons it (0xFF) on release. Had it gone back
// while an aggregator was still reading it, that aggregator would read
// fragments at offset and length -1, and a short reply or wrong bytes
// would follow. Two worlds read at once, so that one's released buffer
// is the other's next request, with aggregators of every speed: a
// slow one (one window a fragment, many windows) reads the requests
// long after a fast rank's request exchange has returned.
func TestRequestBufferReleaseIsPoisonSafe(t *testing.T) {
	const p = 8
	file := randomFile(1<<15, 11)
	reqs := make([][]grid.Run, p)
	for off := int64(0); off+24 <= file.Size(); off += 40 {
		r := int(off/40) % p
		reqs[r] = append(reqs[r], grid.Run{Offset: off, Length: 24})
	}
	var wg sync.WaitGroup
	for _, h := range []Hints{{CBBufferSize: 40, CBNodes: 3}, {CBNodes: 2}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
					got, err := CollectiveRead(c, file, reqs[c.Rank()], h)
					if err == nil && !bytes.Equal(got, directBytes(file, reqs[c.Rank()])) {
						err = errors.New("wrong bytes")
					}
					return err
				})
				if err != nil {
					t.Errorf("%+v, read %d: %v", h, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
