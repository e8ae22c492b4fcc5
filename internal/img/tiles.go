package img

// tileScore measures how far a (mx, my) grid's tiles are from square;
// lower is better.
func tileScore(w, h, mx, my int) float64 {
	tw := float64(w) / float64(mx)
	th := float64(h) / float64(my)
	if tw > th {
		return tw / th
	}
	return th / tw
}

// axisSplit returns the half-open pixel range of part i of n along an
// axis of length l, remainder to the lowest indices.
func axisSplit(l, n, i int) (lo, hi int) {
	q, r := l/n, l%n
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}
