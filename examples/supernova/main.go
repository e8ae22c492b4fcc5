// Supernova: the paper's motivating workload end to end, at laptop
// scale. It writes one time step of the synthetic core-collapse
// supernova as a five-variable netCDF record file (the VH-1 layout of
// Fig 8), reads the X-velocity variable back through the two-phase
// collective I/O path, renders it in parallel, and writes an image akin
// to the paper's Fig 1.
//
//	go run ./examples/supernova
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"bgpvr/internal/core"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/stats"
	"bgpvr/internal/volume"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	scene := core.DefaultScene(96, 384)
	scene.Variable = volume.VarVelocityX
	scene.Perspective = true
	scene.Step = 0.5

	dir, err := os.MkdirTemp("", "supernova")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "vh1-step1530.nc")

	fmt.Fprintf(stdout, "writing %d^3 x 5 variables netCDF time step...\n", scene.Dims.X)
	if err := core.WriteSceneFile(path, core.FormatNetCDF, scene); err != nil {
		return err
	}
	st, _ := os.Stat(path)
	fmt.Fprintf(stdout, "  %s (%s)\n", path, stats.Bytes(st.Size()))

	// Read one of five interleaved record variables collectively and
	// render. The record size is the natural cb_buffer_size (the
	// paper's tuning).
	recSize := int64(scene.Dims.X) * int64(scene.Dims.Y) * 4
	res, err := core.RunReal(core.RealConfig{
		Scene:  scene,
		Procs:  8,
		Format: core.FormatNetCDF,
		Path:   path,
		Hints:  mpiio.Hints{CBBufferSize: recSize, CBNodes: 4},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "frame: io=%s render=%s composite=%s\n",
		stats.Seconds(res.Times.IO), stats.Seconds(res.Times.Render), stats.Seconds(res.Times.Composite))
	fmt.Fprintf(stdout, "I/O: %s physical in %d accesses for %s useful (density %.2f)\n",
		stats.Bytes(res.IO.PhysicalBytes), res.IO.Accesses,
		stats.Bytes(res.IO.UsefulBytes), res.IO.Density())

	if err := res.Image.WritePPM("supernova.ppm", 0.02); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote supernova.ppm (cf. the paper's Fig 1)")
	return nil
}
