package comm

import (
	"testing"

	"bgpvr/internal/telemetry"
)

// Every point-to-point payload and collective call must land in the
// world's telemetry histograms.
func TestWorldNetTelemetry(t *testing.T) {
	w := NewWorld(4)
	nt := &telemetry.NetTelemetry{}
	w.SetNetTelemetry(nt)
	err := w.Run(func(c *Comm) error {
		if c.Net() != nt {
			t.Error("Comm.Net() does not expose the world's telemetry")
		}
		if c.Rank() == 0 {
			c.Send(1, 5, make([]byte, 300))
		}
		if c.Rank() == 1 {
			c.Recv(0, 5)
		}
		c.Barrier()
		buf := make([]byte, 128)
		c.Bcast(0, buf)
		_ = c.Reduce(0, []float64{1, 2}, opSum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One explicit 300 B send; collectives add their own point-to-point
	// traffic on top.
	if nt.SendSizes.Count() == 0 || nt.SendSizes.Bucket(9) == 0 {
		t.Errorf("send sizes = %s; want the 300 B send in [256,511]", nt.SendSizes.String())
	}
	// Barrier (4 ranks observe 0 B) + bcast (128 B) + reduce (16 B).
	if got := nt.CollectiveSizes.Bucket(0); got != 4 {
		t.Errorf("zero-size collective observations = %d, want 4 (the barrier)", got)
	}
	if nt.CollectiveSizes.Bucket(8) != 4 { // 128 B bcast per rank
		t.Errorf("collective sizes = %s; want 4 bcast observations in [128,255]", nt.CollectiveSizes.String())
	}
}

// A world without telemetry must behave identically (nil sink).
func TestWorldNetTelemetryNil(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Net() != nil {
			t.Error("expected nil telemetry")
		}
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("x"))
		} else {
			c.Recv(0, 1)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
