package grid

// Run is a contiguous byte range of a file: [Offset, Offset+Length).
// Runs are how every layer of the I/O stack (raw, netCDF, h5lite, the
// two-phase optimizer, the storage model) describes data requests.
type Run struct {
	Offset, Length int64
}

// End returns the first byte past the run.
func (r Run) End() int64 { return r.Offset + r.Length }

// Runs converts the extent ext of a 3D array of size dims (element size
// elemSize bytes, first element at file offset base) into a minimal,
// offset-sorted list of contiguous byte runs. Rows that are adjacent in
// the file (extent spans full X, or full XY planes) are coalesced, so a
// whole-grid extent yields a single run.
//
// An empty extent yields nil. The extent must lie within dims.
func Runs(dims IVec3, ext Extent, elemSize int, base int64) []Run {
	ext = ext.Intersect(WholeGrid(dims))
	if ext.Empty() {
		return nil
	}
	return AppendRuns(make([]Run, 0, RunCount(dims, ext)), dims, ext, elemSize, base)
}

// RunCount returns how many runs Runs yields for ext, which must lie
// within dims: one per row, per plane when the rows span X, or one in
// all when the planes span Y too.
func RunCount(dims IVec3, ext Extent) int {
	s := ext.Size()
	switch {
	case ext.Empty():
		return 0
	case s.X < dims.X:
		return s.Y * s.Z
	case s.Y < dims.Y:
		return s.Z
	default:
		return 1
	}
}

// AppendRuns appends the runs of ext (as Runs defines them; ext must lie
// within dims) to runs, one row at a time, and returns the extended
// list. A row that starts where the list so far ends extends its last
// run, so a caller that assembles a list from several arrays in offset
// order (the records of a netCDF variable) gets it coalesced.
func AppendRuns(runs []Run, dims IVec3, ext Extent, elemSize int, base int64) []Run {
	es := int64(elemSize)
	rowLen := int64(ext.Size().X) * es
	for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
		for y := ext.Lo.Y; y < ext.Hi.Y; y++ {
			off := base + LinearIndex(dims, IVec3{ext.Lo.X, y, z})*es
			if n := len(runs); n > 0 && runs[n-1].End() == off {
				runs[n-1].Length += rowLen
			} else {
				runs = append(runs, Run{off, rowLen})
			}
		}
	}
	return runs
}

// TotalBytes sums the lengths of runs.
func TotalBytes(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Length
	}
	return n
}

// CoalesceRuns merges adjacent or overlapping runs in an offset-sorted
// list, returning a new list. It is used by the I/O optimizers after
// combining requests from many processes.
func CoalesceRuns(runs []Run) []Run {
	if len(runs) == 0 {
		return nil
	}
	out := make([]Run, 0, len(runs))
	cur := runs[0]
	for _, r := range runs[1:] {
		if r.Offset <= cur.End() {
			if r.End() > cur.End() {
				cur.Length = r.End() - cur.Offset
			}
			continue
		}
		out = append(out, cur)
		cur = r
	}
	return append(out, cur)
}
