package main

import (
	"bytes"
	"io"
	"regexp"
	"testing"

	"bgpvr/internal/clitest"
)

var (
	loopback = regexp.MustCompile(`http://127\.0\.0\.1:[0-9]+`)
	latency  = regexp.MustCompile(`(?m)^( +[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+)(?: +[0-9.]+){5}$`)
	slowest  = regexp.MustCompile(`slowest: [0-9.]+ms id=\S+ \(GET (\S+)/traces/\S+\)`)
)

// masked runs serveload with what varies between runs masked: the
// in-process server's port, the measured throughput and latencies, and
// which request was the slowest. The request and outcome counts are
// the run's, so they stay.
func masked(args []string, stdout, stderr io.Writer) int {
	var out bytes.Buffer
	code := run(args, &out, stderr)
	b := loopback.ReplaceAll(out.Bytes(), []byte("http://<addr>"))
	b = latency.ReplaceAll(b, []byte("${1}     <rps>    <mean>     <p50>     <p90>     <p99>"))
	b = slowest.ReplaceAll(b, []byte("slowest: <ms> id=<id> (GET ${1}/traces/<id>)"))
	_, _ = stdout.Write(b)
	return code
}

// TestRun pins the flag surface, the argument errors (refused before a
// request is sent) and the table of one small in-process sweep level.
func TestRun(t *testing.T) {
	clitest.Run(t, masked, "testdata/run.golden", []string{
		"-h",
		"-nosuch",
		"-sweep 1,x",
		"-mode banana",
		"-n 8 -procs 2 -requests 2 -sweep 1",
	})
}
