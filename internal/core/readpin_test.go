package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/volume"
)

// The read path's pins, recorded at f29ecc6 (before the collective
// buffer was pooled and the requester decoded from the wire): what every
// rank's field holds, which physical accesses the aggregators issue and
// what RunReal reports about them, for every format and hint set on a
// 23 x 19 x 17 grid — odd on every axis, so file domains end mid-float
// and mid-row.

// readPinFields is the SHA-256 over every rank's ghost-extent
// Field.Data (rank order, little-endian float bits). Every format stores
// the same values, so one hash serves all twenty cases.
const readPinFields = "08dbffa50b6154997fd8fbdcfb0876e829ccd657a2adc89c2315f4aaf95b5db1"

// ioPin is the part of RealResult.IO that does not depend on the order
// concurrent aggregators issue their accesses in.
type ioPin struct {
	Accesses                 int
	Physical, Unique, Useful int64
}

// contiguousPinIO is what the three contiguous layouts share: the
// variable's 29,716 bytes read exactly once under every hint set.
var contiguousPinIO = [5]ioPin{
	{8, 29716, 29716, 39900},
	{24, 29716, 29716, 39900},
	{1, 29716, 29716, 39900},
	{3, 29716, 29716, 39900},
	{8, 29716, 29716, 39900},
}

// readPinIO[format][hint set]; the hint sets are those of
// TestReadPathPins, in order.
var readPinIO = map[Format][5]ioPin{
	FormatRaw:  contiguousPinIO,
	FormatCDF5: contiguousPinIO,
	FormatH5:   contiguousPinIO,
	FormatNetCDF: {
		{8, 141588, 141588, 39900},
		{38, 54188, 54188, 39900},
		{1, 141588, 141588, 39900},
		{3, 127604, 127604, 39900},
		{8, 141588, 141588, 39900},
	},
}

func TestReadPathPins(t *testing.T) {
	s := DefaultScene(0, 24)
	s.Dims = grid.I(23, 19, 17)
	const procs = 8
	ref := serialImage(s)
	plane := int64(s.Dims.X * s.Dims.Y * 4) // one variable's record
	hintSets := [5]mpiio.Hints{{}, {CBBufferSize: plane}, {CBNodes: 1}, {CBNodes: 3}, {CBNodes: 8}}
	dir := t.TempDir()
	for _, format := range []Format{FormatRaw, FormatNetCDF, FormatCDF5, FormatH5} {
		path := filepath.Join(dir, format.String())
		if err := WriteSceneFile(path, format, s); err != nil {
			t.Fatal(err)
		}
		lay, err := formatLayout(format, s)
		if err != nil {
			t.Fatal(err)
		}
		union, err := lay.runsFor(nil, grid.WholeGrid(s.Dims))
		if err != nil {
			t.Fatal(err)
		}
		for hi, h := range hintSets {
			name := fmt.Sprintf("%v/%+v", format, h)
			eff := h
			if eff.CBNodes <= 0 {
				eff.CBNodes = min(procs, 8) // RunReal's default
			}

			// Fields and accesses, one world of the test's own.
			fields, got := readWorld(t, s, lay, path, procs, eff)
			if fields != readPinFields {
				t.Errorf("%s: fields hash %s, pinned %s", name, fields, readPinFields)
			}
			if want := sortedPlan(union, eff); !slices.Equal(got, want) {
				t.Errorf("%s: executed accesses %v, planned %v", name, got, want)
			}

			// The same read inside a frame.
			res, err := RunReal(RealConfig{Scene: s, Procs: procs, Format: format, Path: path, Hints: h})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if diff := img.MaxDiff(res.Image, ref); diff > 2e-5 {
				t.Errorf("%s: image differs from serial by %v", name, diff)
			}
			io := ioPin{res.IO.Accesses, res.IO.PhysicalBytes, res.IO.UniqueBytes, res.IO.UsefulBytes}
			if pin := readPinIO[format][hi]; io != pin {
				t.Errorf("%s: io %+v, pinned %+v", name, io, pin)
			}
		}
	}
}

// readWorld reads the file at path in a world of procs ranks under
// hints h, each rank its ghost extent, and returns the SHA-256 over
// every rank's field (rank order) and the executed accesses sorted by
// offset.
func readWorld(t *testing.T, s Scene, lay *layout, path string, procs int, h mpiio.Hints) (string, []grid.Run) {
	t.Helper()
	d := grid.NewDecomp(s.Dims, procs)
	file, closeFn, err := openTraced(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	sums := make([][]byte, procs)
	err = comm.NewWorld(procs).Run(func(c *comm.Comm) error {
		fld, err := lay.readField(c, file, s.Dims, d.GhostExtent(c.Rank(), 1), h)
		if err != nil {
			return err
		}
		sums[c.Rank()] = fieldSum(fld)
		return nil
	})
	if err != nil {
		t.Fatalf("%+v: %v", h, err)
	}
	all := sha256.New()
	for _, sum := range sums {
		all.Write(sum)
	}
	got := file.Log.Accesses()
	slices.SortFunc(got, byOffset)
	return hex.EncodeToString(all.Sum(nil)), got
}

// sortedPlan is the plan's accesses sorted by offset.
func sortedPlan(union []grid.Run, h mpiio.Hints) []grid.Run {
	want := mpiio.BuildPlan(union, h).Accesses
	slices.SortFunc(want, byOffset)
	return want
}

func byOffset(a, b grid.Run) int { return int(a.Offset - b.Offset) }

// The planned-window pin, recorded at 63c7b6d (before the read planner)
// with an explicit DefaultCBBufferSize: a netCDF record file whose
// 81,788-byte records are large enough for the planner to depart from
// the default window (161 x 127 x 24; odd X and Y, so file domains end
// mid-float). With Hints{} the frame reads under the planner's window,
// the record, and must deliver the same fields from fewer bytes.
// readPinFields' grid stays on the default: its 1,748-byte record is
// under the planner's floor.
const plannedPinFields = "1021cf15382dd65bdf43f1b24eded6a99c50889fd63e961065f230d563da63a6"

func TestReadPathPinsPlannedWindow(t *testing.T) {
	s := DefaultScene(0, 24)
	s.Dims = grid.I(161, 127, 24)
	const procs = 8
	path := filepath.Join(t.TempDir(), "step.nc")
	if err := WriteSceneFile(path, FormatNetCDF, s); err != nil {
		t.Fatal(err)
	}
	lay, err := formatLayout(FormatNetCDF, s)
	if err != nil {
		t.Fatal(err)
	}
	union, err := lay.runsFor(nil, grid.WholeGrid(s.Dims))
	if err != nil {
		t.Fatal(err)
	}
	ref := serialImage(s)
	def := mpiio.BuildPlan(union, mpiio.Hints{CBNodes: procs}).Stats()
	for _, h := range []mpiio.Hints{{CBBufferSize: mpiio.DefaultCBBufferSize}, {}} {
		eff := frameHints(h, min(procs, 8), union) // as RunReal resolves them
		fields, got := readWorld(t, s, lay, path, procs, eff)
		if fields != plannedPinFields {
			t.Errorf("%+v: fields hash %s, pinned %s", h, fields, plannedPinFields)
		}
		if want := sortedPlan(union, eff); !slices.Equal(got, want) {
			t.Errorf("%+v: executed accesses %v, planned %v", h, got, want)
		}

		res, err := RunReal(RealConfig{Scene: s, Procs: procs, Format: FormatNetCDF, Path: path, Hints: h})
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if diff := img.MaxDiff(res.Image, ref); diff > 2e-5 {
			t.Errorf("%+v: image differs from serial by %v", h, diff)
		}
		plan := mpiio.BuildPlan(union, eff).Stats()
		if res.IO.PhysicalBytes != plan.PhysicalBytes || res.IO.Accesses != plan.Accesses {
			t.Errorf("%+v: frame read %d bytes in %d accesses, its plan %d in %d",
				h, res.IO.PhysicalBytes, res.IO.Accesses, plan.PhysicalBytes, plan.Accesses)
		}
		if h.CBBufferSize == 0 {
			// The planner's window is the record, and its plan reads less.
			if rec := int64(s.Dims.X * s.Dims.Y * 4); eff.CBBufferSize != rec {
				t.Errorf("planned window %d, want the record %d", eff.CBBufferSize, rec)
			}
			if res.IO.PhysicalBytes >= def.PhysicalBytes {
				t.Errorf("planned window read %d bytes, the default plan %d", res.IO.PhysicalBytes, def.PhysicalBytes)
			}
		}
	}
}

// fieldSum hashes a field's samples as little-endian float bits.
func fieldSum(f *volume.Field) []byte {
	b := make([]byte, 4*len(f.Data))
	for i, v := range f.Data {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	sum := sha256.Sum256(b)
	return sum[:]
}
