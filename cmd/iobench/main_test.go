package main

import (
	"bytes"
	"io"
	"regexp"
	"testing"

	"bgpvr/internal/clitest"
)

var (
	tempDir  = regexp.MustCompile(`files under \S+`)
	readTime = regexp.MustCompile(`(?m)^(.{20}) +[0-9.]+ (?:ns|µs|ms|s) `)
)

// masked runs iobench with the two fields that vary between runs
// masked: the temporary directory and the measured read time. Physical
// bytes, accesses and density are the planned read's, so they stay.
func masked(args []string, stdout, stderr io.Writer) int {
	var out bytes.Buffer
	code := run(args, &out, stderr)
	b := tempDir.ReplaceAll(out.Bytes(), []byte("files under <tmp>"))
	b = readTime.ReplaceAll(b, []byte("${1}     <time> "))
	_, _ = stdout.Write(b)
	return code
}

// TestRun pins the flag surface, the argument errors (refused before
// any file is written) and one small benchmark row set.
func TestRun(t *testing.T) {
	clitest.Run(t, masked, "testdata/run.golden", []string{
		"-h",
		"-nosuch",
		"-n 0",
		"-procs 0",
		"-n 8 -procs 2",
	})
}
