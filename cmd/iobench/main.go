// Command iobench runs the paper's synthetic I/O benchmark (Fig 10) for
// real: it writes a small multivariate time step in each of the five
// formats and reads one variable back collectively, reporting measured
// time, physical bytes, access counts, and data density. The model's
// numbers at the paper's 1120^3 / 2K-core scale are experiments -exp
// fig10.
//
//	iobench -n 48 -procs 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bgpvr/internal/cli"
	"bgpvr/internal/core"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iobench", flag.ContinueOnError)
	n := fs.Int("n", 48, "real-mode volume grid size n^3")
	procs := fs.Int("procs", 8, "real-mode ranks")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if *n < 1 || *procs < 1 {
		fmt.Fprintf(stderr, "iobench: -n and -procs must be at least 1 (got %d, %d)\n", *n, *procs)
		return 2
	}
	if err := bench(stdout, *n, *procs); err != nil {
		fmt.Fprintln(stderr, "iobench:", err)
		return 1
	}
	return 0
}

func bench(stdout io.Writer, n, procs int) error {
	scene := core.DefaultScene(n, 64)
	dir, err := os.MkdirTemp("", "iobench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Window sized so the record structure matters at this scale.
	rec := int64(n) * int64(n) * 4
	modes := []struct {
		name   string
		format core.Format
		window int64
	}{
		{"raw", core.FormatRaw, 0},
		{"new netCDF (CDF-5)", core.FormatCDF5, 0},
		{"h5lite", core.FormatH5, 0},
		{"tuned netCDF", core.FormatNetCDF, rec},
		{"untuned netCDF", core.FormatNetCDF, 4 * rec},
	}
	fmt.Fprintf(stdout, "real mode: %d^3 volume, %d ranks, files under %s\n", n, procs, dir)
	fmt.Fprintf(stdout, "%-20s %10s %12s %10s %8s\n", "mode", "read time", "physical", "accesses", "density")
	for _, m := range modes {
		path := filepath.Join(dir, "step."+m.format.String()+fmt.Sprint(m.window))
		if err := core.WriteSceneFile(path, m.format, scene); err != nil {
			return err
		}
		res, err := core.RunReal(core.RealConfig{
			Scene: scene, Procs: procs, Format: m.format, Path: path,
			Hints: mpiio.Hints{CBBufferSize: m.window, CBNodes: min(procs, 4)},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-20s %10s %12s %10d %8.3f\n", m.name,
			stats.Seconds(res.Times.IO), stats.Bytes(res.IO.PhysicalBytes),
			res.IO.Accesses, res.IO.Density())
	}
	return nil
}
