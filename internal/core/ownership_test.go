package core

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"bgpvr/internal/compose"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
)

// compositeShape is the ledger's frame-composite workload in small: 64
// ranks, 16 compositors, one sample per ray and block.
func compositeShape(imgSize int) RealConfig {
	s := DefaultScene(16, imgSize)
	s.Step = 16
	return RealConfig{Scene: s, Procs: 64, Compositors: 16, Format: FormatGenerate}
}

// Identical frames report identical compositing traffic, and its
// message count is the schedule's plus the m tile gathers: barrier
// signals are not application traffic, so where the other ranks are in
// the barriers around the stage does not show. (Bytes only repeat: real
// fragments are run-encoded behind a header, the schedule's are not.)
func TestRunRealTrafficIsDeterministic(t *testing.T) {
	cfg := compositeShape(128)
	s := cfg.Scene
	d := grid.NewDecomp(s.Dims, cfg.Procs)
	rects := make([]img.Rect, cfg.Procs)
	for b := range rects {
		rects[b] = render.ProjectedRect(s.Camera(), d.BlockExtent(b))
	}
	want := len(compose.DirectSendSchedule(rects, s.ImageW, s.ImageH, cfg.Compositors, compose.PixelBytes)) + cfg.Compositors
	var first *RealResult
	for i := 0; i < 20; i++ {
		res, err := RunReal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Traffic.Messages != want {
			t.Fatalf("frame %d: %d messages, the schedule and the gathers make %d", i, res.Traffic.Messages, want)
		}
		if first == nil {
			first = res
		} else if res.Traffic != first.Traffic {
			t.Fatalf("frame %d: traffic %+v, frame 0 had %+v", i, res.Traffic, first.Traffic)
		}
	}
}

// Two frames at once draw on the one process-wide recycler — with
// TestMain's poisoning on — and each still renders the serial image: no
// buffer is released while the other frame, or its own, can still see it.
func TestConcurrentFramesShareTheRecycler(t *testing.T) {
	cfg := compositeShape(96)
	ref := serialImage(cfg.Scene)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, err := RunReal(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if d := img.MaxDiff(res.Image, ref); !(d <= 2e-5) {
					t.Errorf("frame %d: image differs from the serial reference by %v", i, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A steady-state frame read from a record-interleaved netCDF file (the
// ledger's frame-io shape on a small file) allocates a fraction of the
// variable it reads (here under two fifths, fixed costs and all): fields, aggregator replies, collective buffers and
// subimages all come back from the recycler. One fresh copy of the
// fields or of the replies alone is more than the whole variable (the
// blocks overlap by their ghost layers), twice the ceiling.
func TestRunRealReadFrameAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what is put into it under the race detector")
	}
	s := DefaultScene(64, 64)
	path := filepath.Join(t.TempDir(), "step.nc")
	if err := WriteSceneFile(path, FormatNetCDF, s); err != nil {
		t.Fatal(err)
	}
	cfg := RealConfig{Scene: s, Procs: 8, Format: FormatNetCDF, Path: path}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	frame := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunReal(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The pool settles over a few frames, so steady state is the fewest
	// of several.
	cold, warm := frame(), frame()
	for i := 0; i < 4; i++ {
		warm = min(warm, frame())
	}
	variable := uint64(4 * s.Dims.Count())
	if ceiling := variable / 2; warm > ceiling {
		t.Errorf("steady-state frame allocated %.2f MB, ceiling %.2f MB (the first allocated %.2f MB)",
			float64(warm)/1e6, float64(ceiling)/1e6, float64(cold)/1e6)
	} else {
		t.Logf("steady-state frame allocated %.2f MB of a %.2f MB ceiling (the first %.2f MB)",
			float64(warm)/1e6, float64(ceiling)/1e6, float64(cold)/1e6)
	}
}
