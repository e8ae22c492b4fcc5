// Package comm is the message-passing substrate that stands in for MPI:
// a World of ranks, each executing on its own goroutine, exchanging
// tagged point-to-point messages and running collective operations
// (barrier, broadcast, reduce, allreduce, all-to-all) built on
// the same binomial/dissemination algorithms MPI implementations use.
//
// Real mode executes the actual algorithms with real data at laptop
// scale; the model mode of the experiments reuses the identical message
// *schedules* (who sends how many bytes to whom) and times them on the
// machine model instead. The World therefore records a per-rank traffic
// log that both modes share.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bgpvr/internal/critpath"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/trace"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// message is one in-flight point-to-point message. sentAt is the
// sender's clock reading, stamped only while a critical-path recorder
// is attached; the matching Recv turns it into a dependency edge.
type message struct {
	src, tag int
	data     []byte
	sentAt   float64
}

// mailbox holds undelivered messages for one rank. A World keeps its
// mailboxes in one slice, so one must not be copied: cond.L points at
// its own mu.
type mailbox struct {
	mu      sync.Mutex
	cond    sync.Cond
	pending []message
	closed  bool
}

// mailboxRoom is how many undelivered messages a mailbox holds before
// its queue first grows: the queues start as consecutive windows of one
// backing array, so a world whose ranks have at most this many messages
// waiting apiece allocates its queues once, not per rank or message.
const mailboxRoom = 4

// TrafficStats aggregates the point-to-point messages a World has
// carried: Sends with an application tag. What the collectives exchange
// under their reserved tags is their own mechanism (a barrier signal
// carries no payload) and is not counted, so a snapshot taken between
// two barriers does not depend on how far the other ranks have got
// through them.
type TrafficStats struct {
	Messages   int
	TotalBytes int64
}

// rankTraffic is one rank's share of the counters: only its own Sends
// add to it, so the send path takes no world-wide lock.
type rankTraffic struct {
	messages, bytes atomic.Int64
}

// World is a communicator over a fixed number of ranks.
type World struct {
	size  int
	boxes []mailbox
	comms []Comm // the ranks' handles, reset by each Run

	traffic []rankTraffic // indexed by sending rank

	// failed is the first error (in time) any rank of a Run died with.
	// It is sticky: a failed world's mailboxes are closed for good.
	failMu sync.Mutex
	failed error

	tracer *trace.Tracer
	net    *telemetry.NetTelemetry
	cp     *critpath.Recorder
}

// NewWorld creates a communicator with p ranks. p must be >= 1.
func NewWorld(p int) *World {
	if p < 1 {
		panic("comm: NewWorld requires p >= 1")
	}
	w := &World{size: p, boxes: make([]mailbox, p), comms: make([]Comm, p), traffic: make([]rankTraffic, p)}
	queues := make([]message, p*mailboxRoom)
	for i := range w.boxes {
		b := &w.boxes[i]
		b.cond.L = &b.mu
		// The full slice expression caps each window, so a queue that
		// outgrows its room moves to an array of its own instead of
		// writing over its neighbour's.
		b.pending = queues[i*mailboxRoom : i*mailboxRoom : (i+1)*mailboxRoom]
	}
	return w
}

// Stats returns the cumulative traffic carried so far.
func (w *World) Stats() TrafficStats {
	var st TrafficStats
	for r := range w.traffic {
		st.Messages += int(w.traffic[r].messages.Load())
		st.TotalBytes += w.traffic[r].bytes.Load()
	}
	return st
}

// SetTracer attaches a tracer whose per-rank handles Run passes to
// each Comm; instrumented operations then record spans and counters.
// The default (nil) tracer keeps every instrumented path a free no-op.
// Call before Run.
func (w *World) SetTracer(t *trace.Tracer) { w.tracer = t }

// SetNetTelemetry attaches a network-telemetry sink: Send histograms
// every payload size, the collectives histogram their per-call
// payloads, and the MPI-IO aggregators record their physical access
// sizes. The default (nil) sink keeps every instrumented path a free
// no-op. Call before Run.
func (w *World) SetNetTelemetry(nt *telemetry.NetTelemetry) { w.net = nt }

// SetCritPath attaches a critical-path recorder: every send→recv match
// then records a dependency edge (classified by message tag, or by the
// receiver's SetDepKind override), which the critpath analyzer turns
// into the causal event graph. The default (nil) recorder keeps the
// hooks free no-ops. Call before Run.
func (w *World) SetCritPath(r *critpath.Recorder) { w.cp = r }

// Run executes fn concurrently on every rank and waits for all of them.
// The first error (or recovered panic) to occur is returned; remaining
// ranks still run to completion unless they block forever on a rank that
// died — to avoid that, a dying rank closes every mailbox, causing
// blocked Recvs to panic with a clear message rather than deadlock.
// Those later panics are consequences, which is why the error returned
// is the first in time and not the lowest rank's.
func (w *World) Run(fn func(c *Comm) error) error {
	var wg sync.WaitGroup
	// One closure a rank, capturing the loop's own per-iteration rank:
	// a go statement with arguments would wrap this in a second.
	for rank := range w.size {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.fail(fmt.Errorf("comm: rank %d panicked: %v", rank, p))
				}
			}()
			c := &w.comms[rank]
			*c = Comm{w: w, rank: rank, tr: w.tracer.Rank(rank)}
			if err := fn(c); err != nil {
				w.fail(fmt.Errorf("rank %d: %w", rank, err))
			}
		}()
	}
	wg.Wait()
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failed
}

// fail records err unless an earlier one is held, and aborts the world.
func (w *World) fail(err error) {
	w.failMu.Lock()
	if w.failed == nil {
		w.failed = err
	}
	w.failMu.Unlock()
	w.abort()
}

// abort wakes all blocked receivers so a failed run terminates.
func (w *World) abort() {
	for i := range w.boxes {
		b := &w.boxes[i]
		b.mu.Lock()
		b.closed = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Comm is one rank's handle on the World.
type Comm struct {
	w    *World
	rank int
	tr   *trace.Rank

	// depKind overrides the tag-based dependency classification while
	// non-zero (set around the MPI-IO aggregator exchange and the
	// compositing fragment exchange). Only this rank's goroutine
	// touches it.
	depKind critpath.DepKind
}

// Rank returns this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Trace returns this rank's tracing handle — nil (a valid no-op
// handle) when no tracer is attached — so the layers above the
// runtime can record their own spans and counters.
func (c *Comm) Trace() *trace.Rank { return c.tr }

// Net returns the world's network-telemetry sink — nil (a valid no-op
// sink) when none is attached — so the layers above the runtime (the
// MPI-IO aggregators, compositors) can record their own histograms.
func (c *Comm) Net() *telemetry.NetTelemetry { return c.w.net }

// SetDepKind sets how this rank's subsequent Recv matches classify
// their dependency edges, overriding the tag-based default. Pass
// critpath.DepAuto to restore the default. Callers bracket an exchange:
//
//	c.SetDepKind(critpath.DepFragment)
//	defer c.SetDepKind(critpath.DepAuto)
func (c *Comm) SetDepKind(k critpath.DepKind) { c.depKind = k }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// Sent returns this rank's share of Stats, which only its own Sends
// change: two readings around a stage give the rank's traffic in it
// without waiting for the other ranks.
func (c *Comm) Sent() TrafficStats {
	t := &c.w.traffic[c.rank]
	return TrafficStats{Messages: int(t.messages.Load()), TotalBytes: t.bytes.Load()}
}

// Send delivers data to rank dst with the given tag. It never blocks
// (buffered, like an eager-protocol MPI_Send). The data slice is owned
// by the receiver after the call; the caller must not modify it.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("comm: Send to invalid rank %d", dst))
	}
	if tag < tagBarrier {
		t := &c.w.traffic[c.rank]
		t.messages.Add(1)
		t.bytes.Add(int64(len(data)))
	}
	c.tr.Add(trace.CounterMessages, 1)
	c.tr.Add(trace.CounterBytesSent, int64(len(data)))
	c.w.net.ObserveSend(int64(len(data)))
	var sentAt float64
	if c.w.cp != nil {
		sentAt = c.w.cp.Now()
	}

	b := &c.w.boxes[dst]
	b.mu.Lock()
	b.pending = append(b.pending, message{src: c.rank, tag: tag, data: data, sentAt: sentAt})
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Recv blocks until a message with the given tag arrives from src
// (or from anyone, when src == AnySource) and returns its source and
// payload. Messages from the same source with the same tag are received
// in the order they were sent; other messages may overtake.
func (c *Comm) Recv(src, tag int) (from int, data []byte) {
	sp := c.tr.Begin(trace.PhaseComm, "recv")
	defer sp.End()
	b := &c.w.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.pending {
			if m.tag != tag {
				continue
			}
			if src != AnySource && m.src != src {
				continue
			}
			// Zero the vacated last slot: left alone it would pin the
			// delivered payload until a later Send overwrote it.
			last := len(b.pending) - 1
			copy(b.pending[i:], b.pending[i+1:])
			b.pending[last] = message{}
			b.pending = b.pending[:last]
			if cp := c.w.cp; cp != nil {
				kind := c.depKind
				if kind == critpath.DepAuto {
					kind = classifyTag(m.tag)
				}
				cp.Record(kind, m.src, c.rank, m.sentAt, cp.Now(), int64(len(m.data)))
			}
			return m.src, m.data
		}
		if b.closed {
			panic("comm: Recv on aborted world")
		}
		b.cond.Wait()
	}
}

// classifyTag maps a message tag to a dependency kind by the reserved
// collective tag ranges: barrier rounds are DepBarrier, the other
// collectives' internal exchanges are DepCollective, everything else
// is a plain point-to-point DepMessage.
func classifyTag(tag int) critpath.DepKind {
	switch {
	case tag >= tagBcast:
		return critpath.DepCollective
	case tag >= tagBarrier:
		return critpath.DepBarrier
	default:
		return critpath.DepMessage
	}
}
