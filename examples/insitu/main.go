// InSitu: the paper's future-work direction ("we hope that in situ
// techniques will enable scientists to see early results of their
// computations, as well as eliminate or reduce expensive storage
// accesses, because ... I/O dominates large-scale visualization").
//
// A toy time-dependent simulation (the synthetic supernova's SASI phase
// advancing each step) is rendered directly from memory every step — no
// I/O stage at all. For each frame the example also reports what the
// machine model says the same frame would have cost at paper scale with
// the I/O stage included, making the in-situ argument quantitative.
//
//	go run ./examples/insitu
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"bgpvr/internal/core"
	"bgpvr/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	scene := core.DefaultScene(64, 192)
	scene.Perspective = true

	// Paper-scale comparison: one 1120^3 frame with and without I/O.
	paper, err := core.PaperScene(1120)
	if err != nil {
		return err
	}
	withIO, err := core.RunModel(core.ModelConfig{Scene: paper, Procs: 16384, Format: core.FormatRaw})
	if err != nil {
		return err
	}
	inSitu, err := core.RunModel(core.ModelConfig{Scene: paper, Procs: 16384, Format: core.FormatGenerate})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model, 1120^3 at 16K cores: post-hoc frame %s, in-situ frame %s (%.0fx)\n\n",
		stats.Seconds(withIO.Times.Total), stats.Seconds(inSitu.Times.Total),
		withIO.Times.Total/inSitu.Times.Total)

	// Real mode: march the "simulation" and render every step in situ.
	const steps = 5
	fmt.Fprintf(stdout, "real mode: %d^3 volume, 8 ranks, %d simulation steps\n", scene.Dims.X, steps)
	for step := 0; step < steps; step++ {
		scene.Time = 0.4 * float64(step) // the SASI slosh phase advances
		res, err := core.RunReal(core.RealConfig{
			Scene: scene, Procs: 8, Format: core.FormatGenerate,
		})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("insitu-step%d.ppm", step)
		if err := res.Image.WritePPM(name, 0.02); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  step %d: vis %s -> %s\n", step,
			stats.Seconds(res.Times.Render+res.Times.Composite), name)
	}
	fmt.Fprintln(stdout, "\nevery frame rendered without touching storage — the in-situ case")
	return nil
}
