package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// sceneFilePins is the SHA-256 of DefaultScene(24, 32)'s file in each
// format, recorded at 20e8a25 — when WriteSceneFile evaluated the
// dataset a point at a time — so a generator that moves one bit of one
// sample in any variable, or a writer that moves one byte, fails here.
var sceneFilePins = map[Format]string{
	FormatRaw:    "6c8b7a92fb74429f328c87ed4efcca833e7ef6478223a3cc18994472535c7cd0",
	FormatNetCDF: "76c13c638547202e257e4785d0983153a6e1cda918d6ccc7039160146fe38040",
	FormatCDF5:   "3499950ec2080c1366ec2068f4dc350cb9d8141535868c7314778c2e08993ffb",
	FormatH5:     "2d494362510fac6ba5b473145ecb05e99dd7ebc312a2a94434ce6e614b6b4873",
}

func TestSceneFilePins(t *testing.T) {
	for f, want := range sceneFilePins {
		path := filepath.Join(t.TempDir(), "scene")
		if err := WriteSceneFile(path, f, DefaultScene(24, 32)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%v: %d-byte file hashes to %x, pinned %s", f, len(b), sum, want)
		}
	}
}
