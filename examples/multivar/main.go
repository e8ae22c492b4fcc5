// Multivar: the multivariate payoff of reading netCDF directly.
//
// The paper reads the five-variable netCDF file in the visualization
// partly because it "affords the possibility to perform multivariate
// visualizations" (§V). This example reads TWO record variables from
// one file — X velocity for color and density as an opacity modulator —
// with two collective reads, and renders the bivariate classification.
//
//	go run ./examples/multivar
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"bgpvr/internal/comm"
	cpose "bgpvr/internal/compose"
	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/render"
	"bgpvr/internal/stats"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	scene := core.DefaultScene(80, 320)
	scene.Perspective = true
	scene.Step = 0.5
	const procs = 8

	dir, err := os.MkdirTemp("", "multivar")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "step.nc")
	fmt.Fprintf(stdout, "writing %d^3 x 5 variable netCDF time step...\n", scene.Dims.X)
	if err := core.WriteSceneFile(path, core.FormatNetCDF, scene); err != nil {
		return err
	}

	f, err := vfile.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, err := netcdf.ReadHeader(f)
	if err != nil {
		return err
	}
	vx, _ := hdr.VarByName("velocity_x")
	rho, _ := hdr.VarByName("density")

	d := grid.NewDecomp(scene.Dims, procs)
	cam := scene.Camera()
	cls := render.ModulatedClassifier(scene.Transfer(), 0.35, 0.75)
	order := scene.FrontToBack(d)
	rects := make([]img.Rect, procs)
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}

	var final *img.Image
	world := comm.NewWorld(procs)
	err = world.Run(func(c *comm.Comm) error {
		gext := d.GhostExtent(c.Rank(), 1)
		readVar := func(v *netcdf.Var) (*volume.Field, error) {
			runs, err := hdr.VarRuns(v, gext)
			if err != nil {
				return nil, err
			}
			// The samples are decoded straight out of the aggregators'
			// replies into the field.
			fld := volume.NewField(scene.Dims, gext)
			dec := volume.NewFloatDecoder(fld.Data, volume.BigEndian)
			if err := mpiio.CollectiveReadTo(c, f, runs, mpiio.Hints{CBNodes: 4}, dec); err != nil {
				return nil, err
			}
			return fld, dec.Close()
		}
		fvx, err := readVar(vx)
		if err != nil {
			return err
		}
		frho, err := readVar(rho)
		if err != nil {
			return err
		}
		sub := render.RenderBlockMulti([]*volume.Field{fvx, frho},
			d.BlockExtent(c.Rank()), cam, cls, scene.RenderConfig())
		out, err := compose(c, sub, rects, scene, order)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			final = out
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := final.WritePPM("multivar.ppm", 0.02); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote multivar.ppm (velocity colored, density-modulated, %s file)\n",
		stats.Bytes(f.Size()))
	return nil
}

// compose runs direct-send with four compositors.
func compose(c *comm.Comm, sub *render.Subimage, rects []img.Rect, scene core.Scene, order []int) (*img.Image, error) {
	return cpose.DirectSend(c, sub, rects, scene.ImageW, scene.ImageH, 4, order)
}
