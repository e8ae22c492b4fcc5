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
	"os"
	"time"

	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/stats"
)

func main() {
	in := flag.String("in", "", "input raw file (n^3 float32)")
	n := flag.Int("n", 0, "input grid size n^3")
	factor := flag.Int("factor", 2, "upsampling factor")
	out := flag.String("out", "upsampled.raw", "output raw file")
	procs := flag.Int("procs", 8, "parallel ranks")
	generate := flag.Bool("generate", false, "synthesize the input first")
	flag.Parse()

	if err := run(*in, *n, *factor, *out, *procs, *generate); err != nil {
		fmt.Fprintln(os.Stderr, "upsample:", err)
		os.Exit(1)
	}
}

func run(in string, n, factor int, out string, procs int, generate bool) error {
	if n <= 0 {
		return fmt.Errorf("-n is required")
	}
	dims := grid.Cube(n)
	if generate {
		if in == "" {
			in = fmt.Sprintf("supernova-%d.raw", n)
		}
		fmt.Printf("generating %d^3 synthetic supernova -> %s\n", n, in)
		if err := core.WriteSceneFile(in, core.FormatRaw, core.DefaultScene(n, 0)); err != nil {
			return err
		}
	}
	if in == "" {
		return fmt.Errorf("-in is required (or use -generate)")
	}
	start := time.Now()
	dst, err := core.RunUpsample(core.UpsampleConfig{
		SrcDims: dims, Factor: factor, Procs: procs, SrcPath: in, DstPath: out,
	})
	if err != nil {
		return err
	}
	el := time.Since(start).Seconds()
	outBytes := rawfmt.FileSize(dst)
	fmt.Printf("upsampled %d^3 -> %d^3 with %d ranks in %s (%s written, %s)\n",
		n, dst.X, procs, stats.Seconds(el), stats.Bytes(outBytes),
		stats.Rate(float64(outBytes)/el))
	return nil
}
