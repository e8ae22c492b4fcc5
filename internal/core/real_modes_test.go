package core

import (
	"path/filepath"
	"strings"
	"testing"

	"bgpvr/internal/img"
	"bgpvr/internal/mpiio"
)

// Ghost exchange must produce the identical image to ghost-in-read, for
// in-memory and on-disk data.
func TestRunRealGhostExchangeMatches(t *testing.T) {
	s := smallScene()
	ref := serialImage(s)
	res, err := RunReal(RealConfig{Scene: s, Procs: 8, Format: FormatGenerate, GhostExchange: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
		t.Errorf("ghost-exchange image differs from serial by %v", d)
	}

	path := filepath.Join(t.TempDir(), "ts.raw")
	if err := WriteSceneFile(path, FormatRaw, s); err != nil {
		t.Fatal(err)
	}
	inRead, err := RunReal(RealConfig{Scene: s, Procs: 8, Format: FormatRaw, Path: path,
		Hints: mpiio.Hints{CBBufferSize: 1 << 14, CBNodes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	exch, err := RunReal(RealConfig{Scene: s, Procs: 8, Format: FormatRaw, Path: path,
		Hints: mpiio.Hints{CBBufferSize: 1 << 14, CBNodes: 4}, GhostExchange: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := img.MaxDiff(inRead.Image, exch.Image); d > 1e-6 {
		t.Errorf("ghost modes disagree by %v", d)
	}
	// Exchange mode reads fewer useful bytes (no halo duplication).
	if exch.IO.UsefulBytes >= inRead.IO.UsefulBytes {
		t.Errorf("exchange should read less: %d vs %d", exch.IO.UsefulBytes, inRead.IO.UsefulBytes)
	}
}

// Radix-k in the pipeline matches serial, on a power of two and on a
// count whose default factorization mixes radices ([4, 3]).
func TestRunRealRadixK(t *testing.T) {
	s := smallScene()
	ref := serialImage(s)
	for _, procs := range []int{8, 12} {
		res, err := RunReal(RealConfig{Scene: s, Procs: procs, Format: FormatGenerate, Algo: CompositeRadixK})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
			t.Errorf("procs=%d: differs from serial by %v", procs, d)
		}
	}
}

// Shaded scenes keep the parallel == serial invariant through the full
// pipeline, for both ghost strategies.
func TestRunRealShadedMatchesSerial(t *testing.T) {
	s := smallScene()
	s.Shaded = true
	ref := serialImage(s)
	for _, exch := range []bool{false, true} {
		res, err := RunReal(RealConfig{Scene: s, Procs: 8, Format: FormatGenerate, GhostExchange: exch})
		if err != nil {
			t.Fatalf("exchange=%v: %v", exch, err)
		}
		if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
			t.Errorf("exchange=%v: shaded image differs from serial by %v", exch, d)
		}
	}
}

// Multiple blocks per rank (the paper's "small number of blocks per
// process") preserve the serial image and improve the sample balance.
func TestRunRealBlocksPerRank(t *testing.T) {
	s := smallScene()
	ref := serialImage(s)
	var balance1, balance4 float64
	for _, bpr := range []int{1, 2, 4} {
		res, err := RunReal(RealConfig{Scene: s, Procs: 4, Format: FormatGenerate, BlocksPerRank: bpr})
		if err != nil {
			t.Fatalf("bpr=%d: %v", bpr, err)
		}
		if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
			t.Errorf("bpr=%d: differs from serial by %v", bpr, d)
		}
		switch bpr {
		case 1:
			balance1 = res.SampleBalance
		case 4:
			balance4 = res.SampleBalance
		}
	}
	// At this tiny scale the balance comparison is noisy; just require
	// both to be sane (max/mean within 2x).
	if balance1 < 1 || balance4 < 1 || balance1 > 2 || balance4 > 2 {
		t.Errorf("implausible balances: 1-block %.3f, 4-block %.3f", balance1, balance4)
	}
	// Multi-block with an on-disk format round trips too.
	path := filepath.Join(t.TempDir(), "b.raw")
	if err := WriteSceneFile(path, FormatRaw, s); err != nil {
		t.Fatal(err)
	}
	res, err := RunReal(RealConfig{Scene: s, Procs: 4, Format: FormatRaw, Path: path,
		BlocksPerRank: 2, Hints: mpiio.Hints{CBBufferSize: 8192, CBNodes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
		t.Errorf("on-disk multi-block differs by %v", d)
	}
	// Unsupported combinations fail cleanly.
	if _, err := RunReal(RealConfig{Scene: s, Procs: 4, Format: FormatGenerate,
		BlocksPerRank: 2, Algo: CompositeBinarySwap}); err == nil {
		t.Error("multi-block binary swap accepted")
	}
	if _, err := RunReal(RealConfig{Scene: s, Procs: 4, Format: FormatGenerate,
		BlocksPerRank: 2, GhostExchange: true}); err == nil {
		t.Error("multi-block ghost exchange accepted")
	}
}

// Every name the CLI and the render service accept selects its
// algorithm; any other name is an error that lists them.
func TestParseCompositeAlgo(t *testing.T) {
	for name, want := range map[string]CompositeAlgo{"": CompositeDirectSend, "direct": CompositeDirectSend,
		"binaryswap": CompositeBinarySwap, "radixk": CompositeRadixK, "gather": CompositeSerialGather} {
		if got, err := ParseCompositeAlgo(name); err != nil || got != want {
			t.Errorf("%q: got %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseCompositeAlgo("bswap"); err == nil || !strings.Contains(err.Error(), "want direct, binaryswap, radixk, or gather") {
		t.Errorf("bswap: error %v", err)
	}
}
