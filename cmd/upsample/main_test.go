package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins the rows whose output is deterministic: the flag
// surface, the argument errors, a factor the upsampler refuses, and an
// output that is the input, which is refused once the source is
// generated (core's TestRunUpsampleRefusesItsInput checks that the
// source survives).
func TestRun(t *testing.T) {
	clitest.Run(t, run, "testdata/run.golden", []string{
		"-h",
		"",
		"-n 8",
		"-n 8 -in $TMP/nosuch.raw -factor 0",
		"-generate -in $TMP/s.raw -n 8 -out $TMP/s.raw -procs 2",
		"-nosuch",
	})
}

// upsampledSHA256 is the SHA-256 of the generated 8³ supernova
// upsampled by 2.
const upsampledSHA256 = "1b2353bec72fc0760946f86e60d572b3712506a97db458414a1cf4ce19bee2e3"

// A generated source upsampled by 1 comes back byte for byte, and by 2
// it is pinned, with any rank count. (The success line carries the wall
// time, so these rows stay out of the golden transcript.)
func TestGenerateUpsamples(t *testing.T) {
	dir := t.TempDir()
	src, same := filepath.Join(dir, "s.raw"), filepath.Join(dir, "same.raw")
	var stderr bytes.Buffer
	if code := run([]string{"-generate", "-in", src, "-n", "8", "-factor", "1", "-out", same, "-procs", "2"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(same); err != nil || !bytes.Equal(got, want) {
		t.Errorf("-factor 1 output differs from its source (%v)", err)
	}
	for _, procs := range []string{"1", "2", "3"} {
		out := filepath.Join(dir, "up"+procs+".raw")
		if code := run([]string{"-in", src, "-n", "8", "-factor", "2", "-out", out, "-procs", procs}, io.Discard, &stderr); code != 0 {
			t.Fatalf("-procs %s: exit %d: %s", procs, code, stderr.String())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != upsampledSHA256 {
			t.Errorf("-procs %s: %d bytes, SHA-256 %s, want %s", procs, len(got), sum, upsampledSHA256)
		}
	}
}
