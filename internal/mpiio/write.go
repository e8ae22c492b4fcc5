package mpiio

import (
	"fmt"
	"io"
	"math"
	"sort"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
)

// CollectiveWrite is the write-side two-phase operation: every rank
// passes its sorted, non-overlapping byte runs and the concatenated
// bytes to store there; aggregators assemble the fragments within their
// file domains and issue large contiguous writes. Different ranks must
// not write overlapping ranges (the volume decomposition never does).
//
// The paper's §IV-B preprocessing ("the upsampling was performed
// efficiently, in parallel, with the same BG/P architecture and
// collective I/O") is exactly this operation; cmd/upsample drives it.
func CollectiveWrite(c *comm.Comm, f io.WriterAt, myRuns []grid.Run, myData []byte, h Hints) error {
	var total int64
	for _, r := range myRuns {
		total += r.Length
	}
	if total != int64(len(myData)) {
		return fmt.Errorf("mpiio: runs cover %d bytes, data holds %d", total, len(myData))
	}
	p := c.Size()
	a := h.aggregators(p)
	w := h.window()

	// Global span via allreduce.
	lo, hi := math.Inf(1), math.Inf(-1)
	if len(myRuns) > 0 {
		lo = float64(myRuns[0].Offset)
		hi = float64(myRuns[len(myRuns)-1].End())
	}
	mn := c.Allreduce([]float64{lo}, comm.OpMin)[0]
	mx := c.Allreduce([]float64{hi}, comm.OpMax)[0]
	if math.IsInf(mn, 1) {
		return nil // nothing to write anywhere
	}
	st, end := int64(mn), int64(mx)
	domLen := (end - st + int64(a) - 1) / int64(a)
	if domLen < 1 {
		domLen = 1
	}
	domOf := func(off int64) int {
		d := int((off - st) / domLen)
		if d >= a {
			d = a - 1
		}
		return d
	}
	domEnd := func(d int) int64 { return min(st+int64(d+1)*domLen, end) }

	// Ship (runs, data) fragments to the owning aggregators. The
	// payload layout per aggregator: nfrags, [off len]..., raw bytes.
	type outBuf struct {
		segs []int64
		data []byte
	}
	outs := make([]outBuf, a)
	pos := 0
	for _, r := range myRuns {
		off := r.Offset
		for off < r.End() {
			d := domOf(off)
			l := min(r.End(), domEnd(d)) - off
			outs[d].segs = append(outs[d].segs, off, l)
			outs[d].data = append(outs[d].data, myData[pos:pos+int(l)]...)
			pos += int(l)
			off += l
		}
	}
	bufs := make([][]byte, p)
	for d := 0; d < a; d++ {
		if len(outs[d].segs) == 0 {
			continue
		}
		head := append([]int64{int64(len(outs[d].segs) / 2)}, outs[d].segs...)
		bufs[AggRank(d, a, p)] = append(comm.I64sToBytes(head), outs[d].data...)
	}
	got := c.Alltoallv(bufs)

	// Aggregator: collect fragments, sort, coalesce into contiguous
	// writes bounded by the window size.
	myAgg := -1
	for d := 0; d < a; d++ {
		if AggRank(d, a, p) == c.Rank() {
			myAgg = d
			break
		}
	}
	if myAgg >= 0 {
		type frag struct {
			run  grid.Run
			data []byte
		}
		var frags []frag
		var received int64
		for src := 0; src < p; src++ {
			b := got[src]
			if len(b) == 0 {
				continue
			}
			n := comm.BytesToI64s(b[:8])[0]
			head := comm.BytesToI64s(b[8 : 8+16*n])
			data := b[8+16*n:]
			var dp int64
			for i := int64(0); i < n; i++ {
				r := grid.Run{Offset: head[2*i], Length: head[2*i+1]}
				frags = append(frags, frag{run: r, data: data[dp : dp+r.Length]})
				dp += r.Length
			}
			received += dp
		}
		sort.Slice(frags, func(i, j int) bool { return frags[i].run.Offset < frags[j].run.Offset })
		// Walk fragments, merging adjacent ones into one buffered write,
		// flushing at gaps or when the buffer reaches the window size.
		// It never holds more than this aggregator received, so a small
		// file does not cost a whole (16 MB by default) window.
		buf := make([]byte, 0, min(w, received))
		var bufOff int64 = -1
		flush := func() error {
			if len(buf) == 0 {
				return nil
			}
			if _, err := f.WriteAt(buf, bufOff); err != nil {
				return fmt.Errorf("mpiio: aggregator write at %d: %w", bufOff, err)
			}
			buf = buf[:0]
			bufOff = -1
			return nil
		}
		for _, fr := range frags {
			if bufOff >= 0 && fr.run.Offset != bufOff+int64(len(buf)) {
				if err := flush(); err != nil {
					return err
				}
			}
			data := fr.data
			off := fr.run.Offset
			for len(data) > 0 {
				if bufOff < 0 {
					bufOff = off
				}
				space := int(w) - len(buf)
				n := min(space, len(data))
				buf = append(buf, data[:n]...)
				data = data[n:]
				off += int64(n)
				if len(buf) == int(w) {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	// A barrier so no rank observes the file before all writes land.
	c.Barrier()
	return nil
}
