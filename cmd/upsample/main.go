// Command upsample is the paper's §IV-B preprocessing step: it
// trilinearly upsamples a raw volume in parallel with collective reads
// and writes ("we upsampled the existing supernova raw data format ...
// efficiently, in parallel, with ... collective I/O"), producing the
// larger time steps the scaling study renders.
//
//	upsample -in step.raw -n 128 -factor 2 -out step2240.raw -procs 8
//
// With -generate, a synthetic supernova source of size n^3 is written
// first, so the tool is runnable without any input data.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bgpvr/internal/cli"
	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("upsample", flag.ContinueOnError)
	in := fs.String("in", "", "input raw file (n^3 float32)")
	n := fs.Int("n", 0, "input grid size n^3")
	factor := fs.Int("factor", 2, "upsampling factor")
	out := fs.String("out", "upsampled.raw", "output raw file")
	procs := fs.Int("procs", 8, "parallel ranks")
	generate := fs.Bool("generate", false, "synthesize the input first")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if *n <= 0 {
		fmt.Fprintln(stderr, "upsample: -n is required")
		return 2
	}
	if *in == "" && !*generate {
		fmt.Fprintln(stderr, "upsample: -in is required (or use -generate)")
		return 2
	}
	if err := upsample(stdout, *in, *n, *factor, *out, *procs, *generate); err != nil {
		fmt.Fprintln(stderr, "upsample:", err)
		return 1
	}
	return 0
}

func upsample(stdout io.Writer, in string, n, factor int, out string, procs int, generate bool) error {
	if generate {
		if in == "" {
			in = fmt.Sprintf("supernova-%d.raw", n)
		}
		fmt.Fprintf(stdout, "generating %d^3 synthetic supernova -> %s\n", n, in)
		if err := core.WriteSceneFile(in, core.FormatRaw, core.DefaultScene(n, 0)); err != nil {
			return err
		}
	}
	start := time.Now()
	dst, err := core.RunUpsample(core.UpsampleConfig{
		SrcDims: grid.Cube(n), Factor: factor, Procs: procs, SrcPath: in, DstPath: out,
	})
	if err != nil {
		return err
	}
	el := time.Since(start).Seconds()
	outBytes := rawfmt.FileSize(dst)
	fmt.Fprintf(stdout, "upsampled %d^3 -> %d^3 with %d ranks in %s (%s written, %s)\n",
		n, dst.X, procs, stats.Seconds(el), stats.Bytes(outBytes),
		stats.Rate(float64(outBytes)/el))
	return nil
}
