package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"bgpvr/internal/trace"
)

// The frame starts at the earliest start over the ranks; every later
// stage boundary is the latest end over the ranks, whichever rank it
// is, and each stage runs from one boundary to the next.
func TestStageTimesFold(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	for _, c := range []struct {
		name   string
		stamps [][4]float64 // ms
		want   StageTimes
	}{
		{"near-aligned starts", [][4]float64{{0.1, 3, 9, 12}, {0.2, 5, 8, 12.5}, {0.05, 4, 11, 12.25}},
			StageTimes{IO: 4.95e-3, Render: 6e-3, Composite: 1.5e-3, Total: 12.45e-3}},
		// Rank 0 reads from 0 to 5 ms, and rank 2 starts at 9 ms and
		// reads nothing: a fold from the latest start read IO = 0 here,
		// where the read runs from 0 to rank 2's end of it at 9 ms.
		{"staggered starts", [][4]float64{{0, 5, 6, 7}, {3, 5.5, 7, 8}, {9, 9, 9.5, 10}},
			StageTimes{IO: 9e-3, Render: 0.5e-3, Composite: 0.5e-3, Total: 10e-3}},
	} {
		stamps := make([]stageStamps, len(c.stamps))
		for r, at := range c.stamps {
			for i, v := range at {
				stamps[r].at[i] = ms(v)
			}
		}
		got := stageTimes(stamps)
		for _, s := range []struct {
			name      string
			got, want float64
		}{
			{"io", got.IO, c.want.IO}, {"render", got.Render, c.want.Render},
			{"composite", got.Composite, c.want.Composite}, {"total", got.Total, c.want.Total},
		} {
			if math.Abs(s.got-s.want) > 1e-12 {
				t.Errorf("%s: %s = %v s, want %v", c.name, s.name, s.got, s.want)
			}
		}
	}
	if one := stageTimes([]stageStamps{{at: [4]time.Duration{ms(1), ms(2), ms(4), ms(8)}}}); one.IO != 1e-3 || one.Render != 2e-3 ||
		one.Composite != 4e-3 || one.Total != 7e-3 {
		t.Errorf("one rank = %+v", one)
	}
}

// A real frame's stages are non-negative, add up to its total, and the
// total fits inside RunReal's own wall time, for every compositor and
// rank count.
func TestRunRealStageClock(t *testing.T) {
	s := DefaultScene(24, 32)
	for _, algo := range []CompositeAlgo{CompositeDirectSend, CompositeBinarySwap, CompositeSerialGather, CompositeRadixK} {
		for _, p := range []int{1, 4, 8} {
			start := time.Now()
			res, err := RunReal(RealConfig{Scene: s, Procs: p, Algo: algo, Format: FormatGenerate})
			wall := time.Since(start).Seconds()
			if err != nil {
				t.Fatal(err)
			}
			st := res.Times
			if st.IO < 0 || st.Render < 0 || st.Composite < 0 {
				t.Errorf("algo %d, p=%d: negative stage in %+v", algo, p, st)
			}
			if sum := st.IO + st.Render + st.Composite; math.Abs(sum-st.Total) > 1e-9 {
				t.Errorf("algo %d, p=%d: stages add to %v s, total %v s", algo, p, sum, st.Total)
			}
			if st.Total <= 0 || st.Total > wall {
				t.Errorf("algo %d, p=%d: total %v s against RunReal's wall time %v s", algo, p, st.Total, wall)
			}
		}
	}
}

// A 64-rank frame on two cores starts its ranks one after another, and
// each rank runs a stretch of its stages before the last one starts.
// The frame's Total must still cover every rank's own frame, from the
// start of its io span to the end of its composite span. The spans and
// the stage stamps are two readings of the clock a few statements
// apart; clockSlack covers that, and a preemption between them.
func TestRunRealTotalCoversEveryRank(t *testing.T) {
	const procs, clockSlack = 64, 1e-3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := DefaultScene(16, 1024) // frame-composite's frame
	s.Step = 16
	for frame := 0; frame < 3; frame++ {
		tr := trace.New(procs)
		res, err := RunReal(RealConfig{Scene: s, Procs: procs, Compositors: 16, Format: FormatGenerate, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		var ioStart, compEnd [procs]float64
		for _, e := range tr.Events() {
			switch {
			case e.Nested:
			case e.Name == "io":
				ioStart[e.Rank] = e.Start
			case e.Name == "composite":
				compEnd[e.Rank] = e.Start + e.Dur
			}
		}
		for r := range ioStart {
			if own := compEnd[r] - ioStart[r]; res.Times.Total < own-clockSlack {
				t.Errorf("frame %d: Total %.3f ms, but rank %d ran %.3f ms from its io to its composite end",
					frame, res.Times.Total*1e3, r, own*1e3)
			}
		}
	}
}
