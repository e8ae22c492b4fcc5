// Quickstart: the smallest end-to-end use of bgpvr.
//
// It renders one frame of the synthetic supernova with 8 parallel ranks
// (in-memory data, direct-send compositing), verifies the result against
// the serial reference renderer, and writes the image.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"bgpvr/internal/core"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	// A scene is the volume + camera + transfer function. DefaultScene
	// gives a 64^3 synthetic supernova viewed off-axis.
	scene := core.DefaultScene(64, 256)

	// Run the parallel pipeline: 8 ranks, 4 compositors, no I/O stage.
	res, err := core.RunReal(core.RealConfig{
		Scene:       scene,
		Procs:       8,
		Compositors: 4,
		Format:      core.FormatGenerate,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "frame: io=%.1fms render=%.1fms composite=%.1fms (%d samples)\n",
		res.Times.IO*1e3, res.Times.Render*1e3, res.Times.Composite*1e3, res.Samples)

	// Cross-check against the serial renderer — the pipeline's central
	// invariant is that they match.
	field := scene.Supernova().GenerateFull(scene.Variable, scene.Dims)
	ref, _ := render.RenderFull(field, scene.Camera(), scene.Transfer(), scene.RenderConfig())
	if d := img.MaxDiff(res.Image, ref); d > 1e-5 {
		return fmt.Errorf("parallel image differs from serial by %v", d)
	}
	fmt.Fprintln(stdout, "parallel == serial ✓")

	if err := res.Image.WritePPM("quickstart.ppm", 0.02); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote quickstart.ppm")
	return nil
}
