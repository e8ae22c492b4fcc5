// Package clitest is the smoke-test harness the cmd/ binaries and the
// examples share: it drives a command's run(args, stdout, stderr)
// through declarative rows, one per invocation, and compares the
// transcript — arguments, exit status, stdout, stderr — with one golden
// file per command. go test -update rewrites the golden files.
package clitest

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"bgpvr/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of comparing against them")

// Run executes one invocation per row — a command line, split at white
// space — and compares the transcript with the golden file. "$TMP" in
// an argument stands for a fresh temporary
// directory, returned so the test can read what an invocation wrote
// there; the transcript says $TMP wherever the run printed its path.
func Run(t *testing.T, run func(args []string, stdout, stderr io.Writer) int, golden string, rows []string) (tmp string) {
	t.Helper()
	tmp = t.TempDir()
	var got bytes.Buffer
	for _, row := range rows {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(strings.ReplaceAll(row, "$TMP", tmp)), &stdout, &stderr)
		fmt.Fprintf(&got, "$ %s\nexit %d\n%s", row, code, stdout.String())
		if stderr.Len() > 0 {
			fmt.Fprintf(&got, "--- stderr ---\n%s", stderr.String())
		}
		got.WriteString("========\n")
	}
	Golden(t, golden, bytes.ReplaceAll(got.Bytes(), []byte(tmp), []byte("$TMP")))
	return tmp
}

// Golden compares got with the file at path and shows where they part,
// or rewrites the file under -update.
func Golden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with go test -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	t.Errorf("%s differs from line %d on\n--- got ---\n%s\n--- want ---\n%s", path, i+1,
		strings.Join(g[i:min(i+10, len(g))], "\n"), strings.Join(w[i:min(i+10, len(w))], "\n"))
}

// GoldenReport reads the perf report an invocation wrote, checks it was
// stamped with runtime and pool stats, and compares the rest with the
// golden file: the runtime section (host wall clock, heap) is the one
// part of a model-time report that varies between runs.
func GoldenReport(t *testing.T, report, golden string) {
	t.Helper()
	rep, err := telemetry.ReadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime == nil || rep.Runtime.GoVersion == "" || rep.Runtime.Workers == 0 {
		t.Errorf("%s carries no runtime/pool stamp: %+v", report, rep.Runtime)
	}
	rep.Runtime = nil
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	Golden(t, golden, buf.Bytes())
}

// InTempDir moves the test into a fresh temporary directory until it
// ends, for a program that writes its output into the working
// directory.
func InTempDir(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}
