package compose

import (
	"fmt"
	"slices"

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
// order is the shared front-to-back visibility permutation. Each round
// is a direct-send inside each group: the group's current region is
// split into k tiles, one a member, and every member sends every
// member, itself included, the fragment of its partial image over that
// member's tile, tagged with its visibility position (an empty message
// where the two do not overlap, so that every member waits for k). A
// member's blended tile is its partial image for the next round, and
// after the last every rank sends its tile's spans to rank 0.
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
	var out *img.Image
	if c.Rank() == 0 {
		out = img.New(w, h) // zeroed while the rounds run, as direct-send's
	}
	vr := slices.Index(order, c.Rank())

	region, cur := img.Rect{X1: w, Y1: h}, sub
	stride := 1
	for round, k := range ks {
		if k == 1 {
			continue
		}
		roundSp := tr.Begin(trace.PhaseComposite, "radixk-round")
		digit := (vr / stride) % k
		base := vr - digit*stride
		g := img.NewTileGrid(region.W(), region.H(), k)
		tile := func(d int) img.Rect {
			t := g.Tile(d)
			return img.Rect{X0: region.X0 + t.X0, Y0: region.Y0 + t.Y0, X1: region.X0 + t.X1, Y1: region.Y0 + t.Y1}
		}
		tag := tagRound + round
		for d := 0; d < k; d++ {
			var msg []byte
			if ov := cur.Rect.Intersect(tile(d)); !ov.Empty() {
				msg = encodeFragment(int64(vr), cur, ov)
			}
			c.Send(order[base+d*stride], tag, msg)
		}
		if cur != sub {
			releaseTile(*cur)
		}
		region = tile(digit)
		next, err := blendTile(region, recvFragments(c, tag, k))
		if err != nil {
			return nil, err
		}
		cur = &next
		stride *= k
		roundSp.End()
	}
	c.Send(0, tagSpanGather, encodeSpans(int64(vr), cur))
	if cur != sub {
		releaseTile(*cur)
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	return out, placeTiles(c, out, p)
}
