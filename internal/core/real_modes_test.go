package core

import (
	"path/filepath"
	"strings"
	"testing"

	"bgpvr/internal/img"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/trace"
)

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
// pipeline: the gradient reads the ghost layers the read brought in.
func TestRunRealShadedMatchesSerial(t *testing.T) {
	s := smallScene()
	s.Shaded = true
	res, err := RunReal(RealConfig{Scene: s, Procs: 8, Format: FormatGenerate})
	if err != nil {
		t.Fatal(err)
	}
	if d := img.MaxDiff(res.Image, serialImage(s)); d > 2e-5 {
		t.Errorf("shaded image differs from serial by %v", d)
	}
}

// Multiple blocks per rank (the paper's "small number of blocks per
// process") preserve the serial image and improve the sample balance.
// How eight blocks are dealt to the ranks does not change a bit of the
// frame: direct-send blends each pixel's fragments in the same order.
func TestRunRealBlocksPerRank(t *testing.T) {
	s := smallScene()
	ref := serialImage(s)
	var eight *img.Image
	for _, p := range []int{8, 4, 2, 1} {
		res, err := RunReal(RealConfig{Scene: s, Procs: p, Format: FormatGenerate, BlocksPerRank: 8 / p})
		if err != nil {
			t.Fatalf("%d ranks x %d blocks: %v", p, 8/p, err)
		}
		if eight == nil {
			eight = res.Image
		} else if d := img.MaxDiff(res.Image, eight); d != 0 {
			t.Errorf("%d ranks x %d blocks differ from 8 x 1 by %v", p, 8/p, d)
		}
	}
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
	// An unsupported combination fails cleanly.
	if _, err := RunReal(RealConfig{Scene: s, Procs: 4, Format: FormatGenerate,
		BlocksPerRank: 2, Algo: CompositeBinarySwap}); err == nil {
		t.Error("multi-block binary swap accepted")
	}
}

// Binary swap on a process count that is not a power of two is refused
// before the world starts: the frame records no span, so no rank read
// or rendered anything it would then throw away.
func TestRunRealRefusesBinarySwapBeforeTheWorld(t *testing.T) {
	tr := trace.New(3)
	_, err := RunReal(RealConfig{Scene: DefaultScene(16, 32), Procs: 3, Algo: CompositeBinarySwap,
		Format: FormatGenerate, Trace: tr})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("err = %v, want a refusal naming the power of two", err)
	}
	if n := tr.Len(); n != 0 {
		t.Errorf("the refused frame recorded %d spans", n)
	}
	if err := CompositeBinarySwap.CheckProcs(4); err != nil {
		t.Errorf("4 ranks refused: %v", err)
	}
	for _, a := range []CompositeAlgo{CompositeDirectSend, CompositeRadixK, CompositeSerialGather} {
		if err := a.CheckProcs(3); err != nil {
			t.Errorf("algo %d on 3 ranks refused: %v", a, err)
		}
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
