package core

import (
	"math"
	"testing"
	"time"
)

// Each stage boundary is the latest arrival over the ranks, whichever
// rank it is, and each stage runs from one boundary to the next.
func TestStageTimesFold(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	got := stageTimes([]stageStamps{
		{at: [4]time.Duration{ms(0.1), ms(3), ms(9), ms(12)}},
		{at: [4]time.Duration{ms(0.2), ms(5), ms(8), ms(12.5)}},
		{at: [4]time.Duration{ms(0.05), ms(4), ms(11), ms(12.25)}},
	})
	want := StageTimes{IO: 4.8e-3, Render: 6e-3, Composite: 1.5e-3, Total: 12.3e-3}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"io", got.IO, want.IO}, {"render", got.Render, want.Render},
		{"composite", got.Composite, want.Composite}, {"total", got.Total, want.Total},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v s, want %v", c.name, c.got, c.want)
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
