package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// worldSizes covers the shapes that exercise different code paths:
// singleton, powers of two, and awkward non-powers.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 24}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
			return nil
		}
		src, b := c.Recv(0, 7)
		if src != 0 || string(b) != "hello" {
			return fmt.Errorf("got src=%d data=%q", src, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Messages != 1 || st.TotalBytes != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, []byte("from0tag1"))
		case 1:
			c.Send(2, 2, []byte("from1tag2"))
		case 2:
			// Receive in the "wrong" arrival order on purpose.
			_, b2 := c.Recv(1, 2)
			_, b1 := c.Recv(0, 1)
			if string(b2) != "from1tag2" || string(b1) != "from0tag1" {
				return fmt.Errorf("matching wrong: %q %q", b1, b2)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				src, _ := c.Recv(AnySource, 5)
				seen[src] = true
			}
			if len(seen) != 3 {
				return fmt.Errorf("saw %v", seen)
			}
			return nil
		}
		c.Send(0, 5, []byte{byte(c.Rank())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSameSourceSameTagOrdering(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 9, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			_, b := c.Recv(0, 9)
			if b[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(3)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRecoversPanicAndUnblocksReceivers(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("dead rank")
		}
		// This would deadlock forever if abort did not wake it; the
		// mailbox close turns it into a panic that Run converts.
		c.Recv(0, 1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

// A ring in which every rank sends to its right neighbour before it
// receives from its left completes only because Send never blocks; data
// arrives from the correct peer.
func TestSendrecvRing(t *testing.T) {
	for _, p := range []int{2, 3, 8} {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			right := (c.Rank() + 1) % p
			left := (c.Rank() - 1 + p) % p
			c.Send(right, 7, []byte{byte(c.Rank())})
			from, got := c.Recv(left, 7)
			if from != left || int(got[0]) != left {
				return fmt.Errorf("rank %d got %d from %d", c.Rank(), got[0], from)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBarrierAllArrive(t *testing.T) {
	for _, p := range worldSizes {
		var before, after atomic.Int32
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			before.Add(1)
			c.Barrier()
			// Every rank must have incremented before anyone proceeds.
			if int(before.Load()) != p {
				return fmt.Errorf("rank %d passed barrier with before=%d", c.Rank(), before.Load())
			}
			after.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if int(after.Load()) != p {
			t.Fatalf("p=%d: after=%d", p, after.Load())
		}
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range worldSizes {
		for root := 0; root < p; root += max(1, p/3) {
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			w := NewWorld(p)
			err := w.Run(func(c *Comm) error {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out := c.Bcast(root, in)
				if string(out) != string(payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

// opSum adds src into dst.
func opSum(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		root := p / 2
		err := w.Run(func(c *Comm) error {
			vals := []float64{float64(c.Rank()), 1}
			res := c.Reduce(root, vals, opSum)
			if c.Rank() == root {
				wantSum := float64(p*(p-1)) / 2
				if res[0] != wantSum || res[1] != float64(p) {
					return fmt.Errorf("reduce = %v", res)
				}
			} else if res != nil {
				return fmt.Errorf("non-root got %v", res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceMinMax(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			mn := c.Allreduce([]float64{float64(c.Rank())}, OpMin)
			mx := c.Allreduce([]float64{float64(c.Rank())}, OpMax)
			if mn[0] != 0 || mx[0] != float64(p-1) {
				return fmt.Errorf("rank %d: min=%v max=%v", c.Rank(), mn, mx)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			bufs := make([][]byte, p)
			for d := 0; d < p; d++ {
				// Variable-length payloads: d+1 bytes identifying the pair.
				bufs[d] = []byte(fmt.Sprintf("%d->%d", c.Rank(), d))
			}
			got := c.Alltoallv(bufs)
			for s := 0; s < p; s++ {
				want := fmt.Sprintf("%d->%d", s, c.Rank())
				if string(got[s]) != want {
					return fmt.Errorf("from %d got %q want %q", s, got[s], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// Property: Allreduce(sum) equals the serial sum for random vectors on
// random world sizes.
func TestAllreduceMatchesSerialQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(12)
		n := 1 + rng.Intn(20)
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(1000)) // integers: exact sums
				want[i] += inputs[r][i]
			}
		}
		ok := true
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			got := c.Allreduce(inputs[c.Rank()], opSum)
			if !reflect.DeepEqual(got, want) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	f64 := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	if got := BytesToF64s(F64sToBytes(f64)); !reflect.DeepEqual(got, f64) {
		t.Errorf("f64 round trip = %v", got)
	}
	f32 := []float32{0, 3.5, -1e30}
	if got := BytesToF32s(F32sToBytes(f32)); !reflect.DeepEqual(got, f32) {
		t.Errorf("f32 round trip = %v", got)
	}
	i64 := []int64{0, -5, 1 << 62}
	if got := BytesToI64s(I64sToBytes(i64)); !reflect.DeepEqual(got, i64) {
		t.Errorf("i64 round trip = %v", got)
	}
	if BytesToF64s(nil) != nil || BytesToF32s(nil) != nil || BytesToI64s(nil) != nil {
		t.Error("nil payloads should decode to nil")
	}
}

// Each rank's Sent is what that rank sent with an application tag, and
// nothing another rank sent or a barrier signalled; the ranks' readings
// add up to Stats.
func TestSentCountsOwnSends(t *testing.T) {
	w := NewWorld(3)
	sent := make([]TrafficStats, 3)
	err := w.Run(func(c *Comm) error {
		r := c.Rank()
		for i := 0; i <= r; i++ {
			c.Send((r+1)%3, 1, make([]byte, 10*(r+1)))
		}
		for i := 0; i <= (r+2)%3; i++ {
			c.Recv((r+2)%3, 1)
		}
		c.Barrier()
		sent[r] = c.Sent()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum TrafficStats
	for r, st := range sent {
		if want := (TrafficStats{Messages: r + 1, TotalBytes: int64(10 * (r + 1) * (r + 1))}); st != want {
			t.Errorf("rank %d: Sent %+v, want %+v", r, st, want)
		}
		sum.Messages += st.Messages
		sum.TotalBytes += st.TotalBytes
	}
	if st := w.Stats(); st != sum {
		t.Errorf("Stats %+v, the ranks' Sent add up to %+v", st, sum)
	}
}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWorld(0)
}

// A delivered payload is no longer referenced from the mailbox: Recv
// removes a message by shifting the tail down, and the slot that frees
// at the end of the backing array must be zeroed, or it pins the
// payload (a megabyte, for a compositing fragment) until a later Send
// happens to overwrite it.
func TestRecvClearsVacatedMailboxSlot(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		for tag := 0; tag < 3; tag++ {
			c.Send(0, tag, []byte{byte(tag)})
		}
		for _, tag := range []int{1, 0, 2} { // middle, first, last
			c.Recv(0, tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pending := w.boxes[0].pending
	if len(pending) != 0 {
		t.Fatalf("%d messages left pending", len(pending))
	}
	for i, m := range pending[:cap(pending)] {
		if m.data != nil {
			t.Errorf("backing slot %d still references the payload of tag %d", i, m.tag)
		}
	}
}

// ringExchange is a Run body in which every rank sends mailboxRoom-1
// messages to its right neighbour and receives as many from its left:
// each mailbox holds at most that many at once, within its initial
// room.
func ringExchange(c *Comm) error {
	p := c.Size()
	for tag := 0; tag < mailboxRoom-1; tag++ {
		c.Send((c.Rank()+1)%p, tag, nil)
	}
	for tag := 0; tag < mailboxRoom-1; tag++ {
		c.Recv((c.Rank()-1+p)%p, tag)
	}
	return nil
}

// A world allocates per world, not per rank or message: its mailboxes,
// their queues and the ranks' handles are one slice each, so a world
// whose messages fit the mailboxes' room costs a fixed number of
// objects plus the one closure each rank's goroutine starts with, at 8
// ranks as at 64.
func TestWorldAllocatesPerWorld(t *testing.T) {
	perRun := func(p int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := NewWorld(p).Run(ringExchange); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perRun(8)-8, perRun(64)-64
	if small != large || small > 8 {
		t.Errorf("a world allocates %v objects beside its goroutines at p = 8 and %v at p = 64; want the same few", small, large)
	}
}

// A Send/Recv pair whose message fits the mailbox's room allocates
// nothing.
func TestSendRecvAllocatesNothing(t *testing.T) {
	payload := []byte("ping")
	err := NewWorld(1).Run(func(c *Comm) error {
		if n := testing.AllocsPerRun(1000, func() {
			c.Send(0, 3, payload)
			c.Recv(0, 3)
		}); n != 0 {
			return fmt.Errorf("a Send/Recv pair allocates %v objects, want 0", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
