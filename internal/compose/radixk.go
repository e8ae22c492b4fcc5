package compose

import (
	"fmt"

	"bgpvr/internal/comm"
	"bgpvr/internal/critpath"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/trace"
)

// Radix-k compositing (Peterka, Goodell, Ross, Ma, Thakur — the direct
// follow-on to this paper, SC'09) generalizes the two classic schemes:
// the process count p is factored into rounds k = [k1, ..., kr] with
// k1*...*kr == p; in round i the processes form groups of ki members
// that partition their current image region into ki pieces and
// direct-send within the group. k = [p] is pure direct-send in one
// round; k = [2, 2, ...] is binary swap. Intermediate factorings trade
// message count against round count, which is exactly the knob this
// paper's m-compositor limit foreshadows.

// RadixKFactor returns the default factorization of p for the given
// target radix: greedy factors of min(target, remaining), falling back
// to the smallest prime factor when target does not divide the rest.
func RadixKFactor(p, target int) []int {
	if p <= 1 {
		return []int{1}
	}
	if target < 2 {
		target = 2
	}
	var ks []int
	rest := p
	for rest > 1 {
		k := 0
		for cand := min(target, rest); cand >= 2; cand-- {
			if rest%cand == 0 {
				k = cand
				break
			}
		}
		if k == 0 {
			// rest is prime and larger than target.
			k = smallestFactor(rest)
		}
		ks = append(ks, k)
		rest /= k
	}
	return ks
}

func smallestFactor(n int) int {
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return f
		}
	}
	return n
}

// validateRadix checks that the factors multiply to p.
func validateRadix(p int, ks []int) error {
	prod := 1
	for _, k := range ks {
		if k < 1 {
			return fmt.Errorf("compose: radix factor %d < 1", k)
		}
		prod *= k
	}
	if prod != p {
		return fmt.Errorf("compose: radix factors %v multiply to %d, want %d", ks, prod, p)
	}
	return nil
}

// RadixK composites with the radix-k algorithm and returns the final
// image on rank 0 (nil elsewhere). ks must multiply to the world size;
// order is the shared front-to-back visibility permutation.
func RadixK(c *comm.Comm, sub *render.Subimage, w, h int, ks []int, order []int) (*img.Image, error) {
	tr := c.Trace()
	sp := tr.Begin(trace.PhaseComposite, "radix-k")
	defer sp.End()
	c.SetDepKind(critpath.DepFragment)
	defer c.SetDepKind(critpath.DepAuto)
	p := c.Size()
	if err := validateRadix(p, ks); err != nil {
		return nil, err
	}
	pos := make([]int, p)
	rankAt := make([]int, p)
	for i, r := range order {
		pos[r] = i
		rankAt[i] = r
	}
	vr := pos[c.Rank()]

	span := img.Span{Lo: 0, Hi: w * h}
	buf := fullFrame(sub, w, h)

	stride := 1
	for round, k := range ks {
		if k == 1 {
			continue
		}
		roundSp := tr.Begin(trace.PhaseComposite, "radixk-round")
		digit := (vr / stride) % k
		base := vr - digit*stride
		// Pieces of my current span, one per group member.
		pieces := img.PartitionSpans(span.Len(), k)
		piece := func(d int) []img.RGBA { return buf[span.Lo+pieces[d].Lo : span.Lo+pieces[d].Hi] }
		tag := tagRound + round

		// Send every other member its piece of my buffer.
		for d := 0; d < k; d++ {
			if d != digit {
				c.Send(rankAt[base+d*stride], tag, encodePixels(0, piece(d)))
			}
		}
		// Receive k-1 versions of my piece and composite them, still
		// encoded, into it.
		mine := piece(digit)
		wires := make([][]byte, k)
		for recv := 0; recv < k-1; recv++ {
			src, b := c.Recv(comm.AnySource, tag)
			if len(b) != img.WirePixelBytes*len(mine) {
				return nil, fmt.Errorf("compose: radix-k piece of %d bytes, want %d pixels", len(b), len(mine))
			}
			wires[(pos[src]/stride)%k] = b
		}
		foldRound(mine, wires, digit)
		span = img.Span{Lo: span.Lo + pieces[digit].Lo, Hi: span.Lo + pieces[digit].Hi}
		stride *= k
		roundSp.End()
	}
	return gatherSpans(c, buf, span, w, h), nil
}

// foldRound composites the k pieces of a radix-k round into mine, in
// place, in group (visibility) order: lower digit = nearer. wires[d] is
// member d's piece, still encoded; wires[digit] is unused. The pieces in
// front of mine fold into one front, which goes over mine, and each
// piece behind goes under it. That is the chain a transparent
// accumulator would build (0 under x is x exactly), without the
// accumulator or its copy back. foldRound releases the wires.
func foldRound(mine []img.RGBA, wires [][]byte, digit int) {
	switch {
	case digit == 1:
		img.OverWire(wires[0], mine)
	case digit >= 2:
		front := img.Pixels.Get(len(mine))
		img.GetPixels(front, wires[0])
		for _, b := range wires[1:digit] {
			img.UnderWire(front, b)
		}
		img.OverSlices(front, mine)
		img.Pixels.Put(front)
	}
	for _, b := range wires[digit+1:] {
		img.UnderWire(mine, b)
	}
	for _, b := range wires {
		wire.Put(b)
	}
}
