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
	"bgpvr/internal/halo"
	"bgpvr/internal/img"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/volume"
)

// The read path's pins, recorded at f29ecc6 (before the collective
// buffer was pooled and the requester decoded from the wire): what every
// rank's field holds, which physical accesses the aggregators issue and
// what RunReal reports about them, for every format, hint set and ghost
// mode on a 23 x 19 x 17 grid — odd on every axis, so file domains end
// mid-float and mid-row.

// readPinFields is the SHA-256 over every rank's ghost-extent
// Field.Data (rank order, little-endian float bits). Every format stores
// the same values and both ghost modes end with the same field, so one
// hash serves all forty cases.
const readPinFields = "08dbffa50b6154997fd8fbdcfb0876e829ccd657a2adc89c2315f4aaf95b5db1"

// ioPin is the part of RealResult.IO that does not depend on the order
// concurrent aggregators issue their accesses in.
type ioPin struct {
	Accesses                 int
	Physical, Unique, Useful int64
}

// contiguousPinIO is what the three contiguous layouts share: the
// variable's 29,716 bytes read exactly once under every hint set.
var contiguousPinIO = [5][2]ioPin{
	{{8, 29716, 29716, 39900}, {8, 29716, 29716, 29716}},
	{{24, 29716, 29716, 39900}, {24, 29716, 29716, 29716}},
	{{1, 29716, 29716, 39900}, {1, 29716, 29716, 29716}},
	{{3, 29716, 29716, 39900}, {3, 29716, 29716, 29716}},
	{{8, 29716, 29716, 39900}, {8, 29716, 29716, 29716}},
}

// readPinIO[format][hint set][0: ghost-in-read, 1: GhostExchange]; the
// hint sets are those of TestReadPathPins, in order.
var readPinIO = map[Format][5][2]ioPin{
	FormatRaw:  contiguousPinIO,
	FormatCDF5: contiguousPinIO,
	FormatH5:   contiguousPinIO,
	FormatNetCDF: {
		{{8, 141588, 141588, 39900}, {8, 141588, 141588, 29716}},
		{{38, 54188, 54188, 39900}, {38, 54188, 54188, 29716}},
		{{1, 141588, 141588, 39900}, {1, 141588, 141588, 29716}},
		{{3, 127604, 127604, 39900}, {3, 127604, 127604, 29716}},
		{{8, 141588, 141588, 39900}, {8, 141588, 141588, 29716}},
	},
}

func TestReadPathPins(t *testing.T) {
	s := DefaultScene(0, 24)
	s.Dims = grid.I(23, 19, 17)
	const procs = 8
	d := grid.NewDecomp(s.Dims, procs)
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
		union, err := lay.runsFor(grid.WholeGrid(s.Dims))
		if err != nil {
			t.Fatal(err)
		}
		for hi, h := range hintSets {
			for gi, exch := range []bool{false, true} {
				name := fmt.Sprintf("%v/%+v/exchange=%v", format, h, exch)
				eff := h
				if eff.CBNodes <= 0 {
					eff.CBNodes = min(procs, 8) // RunReal's default
				}

				// Fields and accesses, one world of the test's own.
				file, closeFn, err := openTraced(path)
				if err != nil {
					t.Fatal(err)
				}
				sums := make([][]byte, procs)
				err = comm.NewWorld(procs).Run(func(c *comm.Comm) error {
					ext := d.GhostExtent(c.Rank(), 1)
					if exch {
						ext = d.BlockExtent(c.Rank())
					}
					fld, err := lay.readField(c, file, s.Dims, ext, eff)
					if err == nil && exch {
						fld, err = halo.Exchange(c, d, fld, 1)
					}
					if err != nil {
						return err
					}
					sums[c.Rank()] = fieldSum(fld)
					return nil
				})
				closeFn()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				all := sha256.New()
				for _, sum := range sums {
					all.Write(sum)
				}
				if got := hex.EncodeToString(all.Sum(nil)); got != readPinFields {
					t.Errorf("%s: fields hash %s, pinned %s", name, got, readPinFields)
				}
				byOffset := func(a, b grid.Run) int { return int(a.Offset - b.Offset) }
				got := file.Log.Accesses()
				want := mpiio.BuildPlan(union, eff).Accesses
				slices.SortFunc(got, byOffset)
				slices.SortFunc(want, byOffset)
				if !slices.Equal(got, want) {
					t.Errorf("%s: executed accesses %v, planned %v", name, got, want)
				}

				// The same read inside a frame.
				res, err := RunReal(RealConfig{Scene: s, Procs: procs, Format: format, Path: path,
					Hints: h, GhostExchange: exch})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if diff := img.MaxDiff(res.Image, ref); diff > 2e-5 {
					t.Errorf("%s: image differs from serial by %v", name, diff)
				}
				io := ioPin{res.IO.Accesses, res.IO.PhysicalBytes, res.IO.UniqueBytes, res.IO.UsefulBytes}
				if pin := readPinIO[format][hi][gi]; io != pin {
					t.Errorf("%s: io %+v, pinned %+v", name, io, pin)
				}
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
