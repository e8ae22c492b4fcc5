// Command renderimg renders the synthetic core-collapse supernova
// (our stand-in for the paper's Fig 1 dataset) to a PPM image with the
// serial reference renderer.
//
//	renderimg -n 128 -img 512 -var velocity_x -o supernova.ppm
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bgpvr/internal/cli"
	"bgpvr/internal/core"
	"bgpvr/internal/render"
	"bgpvr/internal/volume"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("renderimg", flag.ContinueOnError)
	n := fs.Int("n", 128, "volume grid size n^3")
	imgSize := fs.Int("img", 512, "image size (square)")
	varName := fs.String("var", "velocity_x", "variable: pressure, density, velocity_{x,y,z}")
	persp := fs.Bool("persp", true, "perspective camera")
	shaded := fs.Bool("shaded", true, "gradient (Lambertian) shading")
	timeArg := fs.Float64("time", 1.1, "SASI phase (time step)")
	out := fs.String("o", "supernova.ppm", "output PPM path")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}

	v, ok := varByName(*varName)
	if !ok {
		fmt.Fprintf(stderr, "renderimg: unknown variable %q\n", *varName)
		return 1
	}
	scene := core.DefaultScene(*n, *imgSize)
	scene.Variable = v
	scene.Perspective = *persp
	scene.Shaded = *shaded
	scene.Time = *timeArg
	scene.Step = 0.5

	fmt.Fprintf(stdout, "generating %d^3 %s field...\n", *n, v.Name())
	field := scene.Supernova().GenerateFull(v, scene.Dims)
	fmt.Fprintf(stdout, "ray casting %d^2 image...\n", *imgSize)
	img, samples := render.RenderFull(field, scene.Camera(), scene.Transfer(), scene.RenderConfig())
	if err := img.WritePPM(*out, 0.02); err != nil {
		fmt.Fprintln(stderr, "renderimg:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d samples)\n", *out, samples)
	return 0
}

func varByName(name string) (volume.Var, bool) {
	for v := volume.Var(0); v < volume.NumVars; v++ {
		if v.Name() == name {
			return v, true
		}
	}
	return 0, false
}
