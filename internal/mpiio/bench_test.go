package mpiio

import (
	"fmt"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/vfile"
)

// BenchmarkCollectiveRead times one collective read of a 96^3 float
// variable by 8 ranks, each asking for its block plus one ghost layer,
// from a MemFile (so the physical reads are memory copies and what is
// left is the two-phase machinery). Two layouts: "record", the variable
// as one of five interleaved per Z plane behind a 1 KB header, as in a
// netCDF record file (Fig 8), and "contiguous". Each under the default
// 16 MB window, a window of one record, and the window ChooseWindow plans
// for the whole variable's runs, with 1, 4 and 8 aggregators — the
// paper's two hints. (The 36 KB record is under the planner's floor, so
// at this size "planned" is the default; the read pins in
// internal/core cover a shape where it is not.) It reports MB/s of
// useful bytes, the physical bytes read per useful byte and the window.
func BenchmarkCollectiveRead(b *testing.B) {
	const (
		p, nvars, header = 8, 5, 1024
		n                = 96
	)
	dims := grid.Cube(n)
	plane := grid.IVec3{X: n, Y: n, Z: 1}
	const record = n * n * 4
	d := grid.NewDecomp(dims, p)
	layouts := []struct {
		name string
		size int64
		runs func(ext grid.Extent) []grid.Run
	}{
		{"record", header + nvars*n*record, func(ext grid.Extent) []grid.Run {
			planeExt := grid.Ext(grid.I(ext.Lo.X, ext.Lo.Y, 0), grid.I(ext.Hi.X, ext.Hi.Y, 1))
			var runs []grid.Run
			for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
				runs = grid.AppendRuns(runs, plane, planeExt, 4, header+int64(z*nvars+2)*record)
			}
			return runs
		}},
		{"contiguous", n * record, func(ext grid.Extent) []grid.Run { return grid.Runs(dims, ext, 4, 0) }},
	}
	for _, lay := range layouts {
		file := &vfile.MemFile{Data: make([]byte, lay.size)}
		reqs := make([][]grid.Run, p)
		var useful int64
		for r := range reqs {
			reqs[r] = lay.runs(d.GhostExtent(r, 1))
			useful += grid.TotalBytes(reqs[r])
		}
		union := lay.runs(grid.WholeGrid(dims))
		for _, win := range []struct {
			name string
			size int64
		}{{"default", DefaultCBBufferSize}, {"record", record}, {"planned", 0}} {
			for _, nodes := range []int{1, 4, 8} {
				h := Hints{CBBufferSize: win.size, CBNodes: nodes}
				if win.size == 0 {
					h.CBBufferSize = ChooseWindow(union, nodes)
				}
				b.Run(fmt.Sprintf("%s/window=%s/aggregators=%d", lay.name, win.name, nodes), func(b *testing.B) {
					read := func(f vfile.File) {
						err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
							var got discard
							return CollectiveReadTo(c, f, reqs[c.Rank()], h, &got)
						})
						if err != nil {
							b.Fatal(err)
						}
					}
					traced := vfile.NewTraced(file)
					read(traced) // also warms the buffer pool
					physical := iotrace.Analyze(traced.Log.Accesses(), nil).PhysicalBytes
					b.ReportAllocs()
					b.SetBytes(useful)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						read(file)
					}
					b.ReportMetric(float64(physical)/float64(useful), "physical/useful")
					b.ReportMetric(float64(h.CBBufferSize), "window-bytes")
				})
			}
		}
	}
}
