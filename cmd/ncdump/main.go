// Command ncdump prints the header of a netCDF classic file (CDF-1/2/5)
// in CDL notation, like the real `ncdump -h`. It also understands the
// repository's h5lite containers.
//
//	ncdump step.nc
//	ncdump -layout step.nc    # add per-variable byte offsets
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"bgpvr/internal/cli"
	"bgpvr/internal/h5lite"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/stats"
	"bgpvr/internal/vfile"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncdump", flag.ContinueOnError)
	layout := fs.Bool("layout", false, "also print the byte layout")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ncdump [-layout] <file>")
		return 2
	}
	if err := dump(stdout, fs.Arg(0), *layout); err != nil {
		fmt.Fprintln(stderr, "ncdump:", err)
		return 1
	}
	return 0
}

func dump(w io.Writer, path string, layout bool) error {
	f, err := vfile.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	name := filepath.Base(path)
	if h, err := netcdf.ReadHeader(f); err == nil {
		fmt.Fprint(w, h.CDL(name))
		if layout {
			fmt.Fprintln(w, "\n// layout:")
			for i := range h.Vars {
				v := &h.Vars[i]
				kind := "fixed"
				if h.IsRecordVar(v) {
					kind = fmt.Sprintf("record (stride %d)", h.RecSize())
				}
				fmt.Fprintf(w, "//\t%-16s begin %12d  vsize %10d  %s\n", v.Name, v.Begin, v.VSize, kind)
			}
		}
		return nil
	}

	// Fall back to h5lite.
	h5, err := h5lite.Open(f)
	if err != nil {
		return fmt.Errorf("not a netCDF classic or h5lite file: %w", err)
	}
	fmt.Fprintf(w, "h5lite %s {\n", name)
	for _, d := range h5.Datasets {
		fmt.Fprintf(w, "\tfloat %s(%d, %d, %d) ;  // %s at offset %d\n",
			d.Name, d.Dims.Z, d.Dims.Y, d.Dims.X, stats.Bytes(d.Size), d.Offset)
		keys := make([]string, 0, len(d.Attrs))
		for k := range d.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "\t\t%s:%s = %q ;\n", d.Name, k, d.Attrs[k])
		}
	}
	fmt.Fprintln(w, "}")
	return nil
}
