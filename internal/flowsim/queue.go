package flowsim

import mbits "math/bits"

// bShift buckets shares by the top 64-bShift bits of their float64 bit
// pattern (sign always 0: shares are non-negative), so bucket indices
// order exactly like share values. 48 keeps 4 mantissa bits, i.e.
// buckets ~6% wide in share value: coarse enough that many touches
// leave a link's share inside its current bucket (refiles are the
// dominant bookkeeping cost), fine enough that the lowest occupied
// bucket stays small to scan, and the whole structure (2^16 buckets)
// stays cache-resident.
const (
	bShift   = 48
	nBuckets = 1 << (64 - bShift)
)

// bucketQueue is the monotone bucket queue bottleneck selection runs
// on, keyed by the IEEE bit pattern of each link's current share
// (linkState.inBucket names the bucket holding a link's valid entry).
//
// The invariant is one-sided: every live link has exactly one valid
// entry, filed at or BELOW the bucket of its current share. Shares only
// rise as an event's rounds freeze bandwidth (removing a flow that was
// capped below this link's fair share raises the survivors' share), so
// a touch normally leaves the entry where it is — division-free — and
// the pop scan lifts stale entries to their exact bucket when it
// reaches them, coalescing every intermediate crossing into one refile.
// The rare genuine dips (clamping + rounding pushing a share below its
// filed bucket's floor) are refiled eagerly by the touch that causes
// them. The pop scan recomputes exact shares for the entries of the
// first non-empty bucket, so the selected minimum is bit-for-bit the
// rescan's. cur only advances past buckets proven empty of valid
// entries and is pulled back by any lower file.
type bucketQueue struct {
	bucket [][]int32
	stamp  []int32 // event that last truncated each bucket's list
	bitmap [nBuckets / 64]uint64
	event  int32
	cur    int
}

// reset empties the queue for a new event: the bitmap is small enough
// to clear wholesale, bucket lists are truncated lazily (stamp).
func (q *bucketQueue) reset() {
	clear(q.bitmap[:])
	q.event++
	q.cur = nBuckets
}

// file pushes link l into bucket b for the current event.
func (q *bucketQueue) file(l, b int32) {
	if q.stamp[b] != q.event {
		q.stamp[b] = q.event
		q.bucket[b] = q.bucket[b][:0]
	}
	q.bitmap[b>>6] |= 1 << (uint(b) & 63)
	q.bucket[b] = append(q.bucket[b], l)
	if int(b) < q.cur {
		q.cur = int(b)
	}
}

// refile is a deferred push: link goes into bucket.
type refile struct{ link, bucket int32 }

// fileAll files the deferred pushes in order.
func (q *bucketQueue) fileAll(rs []refile) {
	for _, r := range rs {
		q.file(r.link, r.bucket)
	}
}

// lowest returns the lowest occupied bucket at or above cur, or -1.
func (q *bucketQueue) lowest() int {
	for q.cur < nBuckets {
		wd := q.bitmap[q.cur>>6] >> (uint(q.cur) & 63)
		if wd != 0 {
			return q.cur + mbits.TrailingZeros64(wd)
		}
		q.cur = (q.cur &^ 63) + 64
	}
	return -1
}

// drop clears bucket b, scanned and found empty of valid entries.
func (q *bucketQueue) drop(b int) {
	q.bitmap[b>>6] &^= 1 << (uint(b) & 63)
	q.cur = b + 1
}
