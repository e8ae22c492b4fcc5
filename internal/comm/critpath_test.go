package comm

import (
	"testing"

	"bgpvr/internal/critpath"
	"bgpvr/internal/trace"
)

// TestCritPathDepRecording pins the send→recv hook: with a recorder
// attached, every match records one edge with the right endpoints and
// a kind classified from the message tag.
func TestCritPathDepRecording(t *testing.T) {
	w := NewWorld(4)
	tr := trace.New(4)
	w.SetTracer(tr)
	rec := critpath.NewRecorder(tr, 64)
	w.SetCritPath(rec)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, 7, []byte{1, 2, 3})
		}
		if c.Rank() == 0 {
			c.Recv(1, 7)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	deps := rec.Deps()
	var msg, barrier int
	for _, d := range deps {
		switch d.Kind {
		case critpath.DepMessage:
			msg++
			if d.Src != 1 || d.Dst != 0 || d.Bytes != 3 {
				t.Errorf("message edge = %+v", d)
			}
			if d.DstT < d.SrcT {
				t.Errorf("edge goes backward in time: %+v", d)
			}
		case critpath.DepBarrier:
			barrier++
		default:
			t.Errorf("unexpected edge kind %v: %+v", d.Kind, d)
		}
	}
	if msg != 1 {
		t.Errorf("message edges = %d, want 1", msg)
	}
	if barrier == 0 {
		t.Error("barrier recorded no edges")
	}
}

// TestSetDepKindOverride pins the per-rank classification override the
// MPI-IO aggregators and compositors use.
func TestSetDepKindOverride(t *testing.T) {
	w := NewWorld(2)
	rec := critpath.NewRecorder(nil, 16)
	w.SetCritPath(rec)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, 5, []byte{9})
			c.Send(0, 6, []byte{9})
		}
		if c.Rank() == 0 {
			c.SetDepKind(critpath.DepFragment)
			c.Recv(1, 5)
			c.SetDepKind(critpath.DepAuto)
			c.Recv(1, 6)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	deps := rec.Deps()
	if len(deps) != 2 {
		t.Fatalf("deps = %+v, want 2", deps)
	}
	kinds := map[critpath.DepKind]int{}
	for _, d := range deps {
		kinds[d.Kind]++
	}
	if kinds[critpath.DepFragment] != 1 || kinds[critpath.DepMessage] != 1 {
		t.Errorf("kinds = %v, want one fragment and one message", kinds)
	}
}

// TestNoRecorderNoEdges: without a recorder the hooks are inert and
// messages carry a zero timestamp.
func TestNoRecorderNoEdges(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.w.cp != nil {
			t.Error("a world should start with no recorder")
		}
		if c.Rank() == 0 {
			c.Send(1, 3, []byte{1})
		} else {
			c.Recv(0, 3)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
