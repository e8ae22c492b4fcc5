// Command accessmap visualizes the file access pattern of a collective
// read (the paper's Fig 9): which blocks of the file the two-phase
// optimizer physically reads when the application wants one variable of
// five. It prints ASCII shade maps and can write PGM images.
//
// The scenario is fixed to the paper's: the 1120^3 five-variable file
// read by 2K cores.
//
//	accessmap -pgm-dir ./maps
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bgpvr/internal/bench"
	"bgpvr/internal/cli"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("accessmap", flag.ContinueOnError)
	pgmDir := fs.String("pgm-dir", "", "also write one PGM image per mode")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}

	modes, report, err := bench.Fig9(machine.NewBGP())
	if err != nil {
		fmt.Fprintln(stderr, "accessmap:", err)
		return 1
	}
	fmt.Fprint(stdout, report)
	if *pgmDir == "" {
		return 0
	}
	if err := os.MkdirAll(*pgmDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "accessmap:", err)
		return 1
	}
	for _, m := range modes {
		name := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '_'
			}
		}, m.Name)
		path := filepath.Join(*pgmDir, name+".pgm")
		if err := writePGM(path, m); err != nil {
			fmt.Fprintln(stderr, "accessmap:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return 0
}

// writePGM writes one mode's access map as a PGM image.
func writePGM(path string, m bench.Fig9Mode) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := img.EncodePGM(f, len(m.Map)/m.Rows, m.Rows, m.Map); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
