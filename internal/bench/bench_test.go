package bench

import (
	"sort"
	"strings"
	"testing"

	"bgpvr/internal/core"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/volume"
)

var mach = machine.NewBGP()

func TestTable1(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Supernova", "32768", "Earthquake"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFig3Claims(t *testing.T) {
	pts, report, err := Fig3(mach)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ProcSweep) {
		t.Fatalf("points = %d", len(pts))
	}
	byP := map[int]Fig3Point{}
	for _, pt := range pts {
		byP[pt.Procs] = pt
	}
	// Claim: best all-inclusive frame time in the mid-K range (paper:
	// 5.9 s at 16K cores), between 4 and 9 seconds.
	best, bestP := 1e18, 0
	for _, pt := range pts {
		if pt.Total < best {
			best, bestP = pt.Total, pt.Procs
		}
	}
	if bestP < 4096 || bestP > 32768 {
		t.Errorf("best frame time at %d cores, paper found 16K", bestP)
	}
	if best < 3 || best > 9 {
		t.Errorf("best frame time %.1f s, paper reports 5.9 s", best)
	}
	// Claim: original compositing roughly flat through 1K cores, then a
	// sharp rise; beyond 8K it exceeds rendering.
	if byP[1024].CompositeOriginal > 10*byP[64].CompositeOriginal {
		t.Errorf("original compositing should be roughly flat to 1K: %v vs %v",
			byP[1024].CompositeOriginal, byP[64].CompositeOriginal)
	}
	if byP[32768].CompositeOriginal < 10*byP[1024].CompositeOriginal {
		t.Errorf("original compositing should rise sharply beyond 1K")
	}
	for _, p := range []int{16384, 32768} {
		if byP[p].CompositeOriginal <= byP[p].Render {
			t.Errorf("p=%d: original compositing should exceed rendering", p)
		}
	}
	// Claim: improved compositing is several times faster at 32K (paper
	// reports 30x; the model reproduces an order of magnitude).
	if gain := byP[32768].CompositeOriginal / byP[32768].CompositeImproved; gain < 5 {
		t.Errorf("improvement at 32K = %.1fx", gain)
	}
	// Claim: limiting compositors reduces overall frame time at 32K by
	// a double-digit percentage (paper: 24%).
	origTotal := byP[32768].IO + byP[32768].Render + byP[32768].CompositeOriginal
	if red := 100 * (origTotal - byP[32768].Total) / origTotal; red < 10 || red > 40 {
		t.Errorf("frame-time reduction at 32K = %.0f%%, paper reports 24%%", red)
	}
	// Claim: rendering scales approximately linearly.
	if s := byP[64].Render / byP[4096].Render; s < 40 || s > 90 {
		t.Errorf("render scaling 64->4096 = %.0fx", s)
	}
	if !strings.Contains(report, "Fig 3") {
		t.Error("report missing title")
	}
}

func TestFig4Claims(t *testing.T) {
	pts, report, err := Fig4(mach)
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]Fig4Point{}
	for _, pt := range pts {
		byP[pt.Procs] = pt
	}
	// The paper's message-size axis: 1600^2*4/p.
	if byP[256].MsgBytes != 40000 || byP[32768].MsgBytes != 312 {
		t.Errorf("message sizes: %d at 256, %d at 32K (paper: 40K, 312)",
			byP[256].MsgBytes, byP[32768].MsgBytes)
	}
	// Claim: both schemes fall away from peak as p grows and messages
	// shrink, the original more severely.
	for _, pt := range pts {
		if pt.OriginalBW > pt.PeakBW*float64(pt.Procs) {
			t.Errorf("p=%d: original above aggregate peak", pt.Procs)
		}
	}
	ratioSmall := byP[256].PeakBW / byP[256].OriginalBW
	ratioBig := byP[32768].PeakBW / byP[32768].OriginalBW
	_ = ratioSmall
	if byP[32768].ImprovedBW <= byP[32768].OriginalBW {
		t.Error("improved bandwidth should beat original at 32K")
	}
	if ratioBig < 2 {
		t.Errorf("original should fall well below peak at 32K (ratio %.1f)", ratioBig)
	}
	// Messages grow superlinearly for the original scheme.
	if byP[32768].OrigMessages < 8*byP[1024].OrigMessages {
		t.Error("message count should explode with p")
	}
	if !strings.Contains(report, "Fig 4") {
		t.Error("report missing title")
	}
}

func TestFig5Claims(t *testing.T) {
	pts, report, err := Fig5(mach)
	if err != nil {
		t.Fatal(err)
	}
	// Memory gating: 4480^3 requires thousands of cores in-core.
	for _, pt := range pts {
		if pt.Grid == 4480 && pt.Procs < 1024 {
			t.Errorf("4480^3 at %d cores does not fit in memory", pt.Procs)
		}
		if pt.Total <= 0 {
			t.Errorf("non-positive total: %+v", pt)
		}
	}
	// Larger problems take longer at equal core count.
	at := func(g, p int) float64 {
		for _, pt := range pts {
			if pt.Grid == g && pt.Procs == p {
				return pt.Total
			}
		}
		return -1
	}
	if !(at(1120, 8192) < at(2240, 8192) && at(2240, 8192) < at(4480, 8192)) {
		t.Errorf("size ordering violated: %v %v %v", at(1120, 8192), at(2240, 8192), at(4480, 8192))
	}
	if !strings.Contains(report, "Fig 5") {
		t.Error("report missing title")
	}
}

func TestTable2Claims(t *testing.T) {
	rows, report, err := Table2(mach)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Claim: I/O requires ~96% of total time at these sizes.
		if r.PctIO < 90 || r.PctIO > 99.9 {
			t.Errorf("%d^3 @ %d: %%I/O = %.1f, paper reports ~96", r.Grid, r.Procs, r.PctIO)
		}
		// Claim: read bandwidth in the 0.8-1.7 GB/s band.
		if r.ReadBW < 0.7e9 || r.ReadBW > 2.2e9 {
			t.Errorf("%d^3 @ %d: read bw %.2f GB/s outside the paper's band", r.Grid, r.Procs, r.ReadBW/1e9)
		}
		// More cores -> shorter frames within a size.
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Grid == rows[i-1].Grid && rows[i].TotalTime >= rows[i-1].TotalTime {
			t.Errorf("time should fall with cores: %+v vs %+v", rows[i], rows[i-1])
		}
	}
	// 2240^3 frame end-to-end in tens of seconds; 4480^3 in minutes
	// (paper: 35.5 s and 220.8 s at 32K).
	last2240 := rows[2]
	last4480 := rows[5]
	if last2240.TotalTime < 20 || last2240.TotalTime > 70 {
		t.Errorf("2240^3 @ 32K = %.1f s, paper reports 35.5", last2240.TotalTime)
	}
	if last4480.TotalTime < 150 || last4480.TotalTime > 400 {
		t.Errorf("4480^3 @ 32K = %.1f s, paper reports 220.8", last4480.TotalTime)
	}
	if !strings.Contains(report, "Table II") {
		t.Error("report missing title")
	}
}

func TestFig6Claims(t *testing.T) {
	pts, report, err := Fig6(mach)
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]Fig6Point{}
	for _, pt := range pts {
		byP[pt.Procs] = pt
		if s := pt.PctIO + pt.PctRender + pt.PctComp; s < 95 || s > 100.5 {
			t.Errorf("p=%d: stage shares sum to %.1f%%", pt.Procs, s)
		}
	}
	// Claim: I/O dominates at scale.
	if byP[16384].PctIO < 80 {
		t.Errorf("I/O share at 16K = %.1f%%, should dominate", byP[16384].PctIO)
	}
	// Rendering matters at small scale.
	if byP[64].PctRender < 20 {
		t.Errorf("render share at 64 = %.1f%%", byP[64].PctRender)
	}
	if !strings.Contains(report, "Fig 6") {
		t.Error("report missing title")
	}
}

func TestFig7Claims(t *testing.T) {
	pts, report, err := Fig7(mach)
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]Fig7Point{}
	for _, pt := range pts {
		byP[pt.Procs] = pt
		if !(pt.RawBW >= pt.TunedBW && pt.TunedBW >= pt.OrigBW) {
			t.Errorf("p=%d: bandwidth ordering raw>=tuned>=untuned violated: %+v", pt.Procs, pt)
		}
	}
	// Claim: netCDF ~4-5x slower than raw at low core counts, narrowing
	// at high counts.
	low := byP[256].RawBW / byP[256].OrigBW
	high := byP[32768].RawBW / byP[32768].OrigBW
	if low < 3 || low > 7 {
		t.Errorf("untuned slowdown at 256 = %.1fx, paper reports 4-5x", low)
	}
	if high >= low {
		t.Errorf("slowdown should narrow at scale: %.1f -> %.1f", low, high)
	}
	if high < 1.1 || high > 3.5 {
		t.Errorf("untuned slowdown at 32K = %.1fx, paper reports ~1.5x", high)
	}
	// Claim: tuning roughly doubles netCDF bandwidth in some regimes.
	gain := byP[2048].TunedBW / byP[2048].OrigBW
	if gain < 1.5 {
		t.Errorf("tuning gain at 2K = %.2fx, paper reports up to 2x", gain)
	}
	if !strings.Contains(report, "Fig 7") {
		t.Error("report missing title")
	}
}

func TestFig8Report(t *testing.T) {
	s, err := Fig8(1120)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pressure", "density", "velocity_z", "record 0", "record 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig 8 dump missing %q", want)
		}
	}
	// The record stride is 5 slices of 1120^2 floats.
	if !strings.Contains(s, "25088000") {
		t.Errorf("Fig 8 dump missing record size: %s", s[:200])
	}
}

func TestFig9Claims(t *testing.T) {
	modes, report, err := Fig9(mach)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 4 {
		t.Fatalf("modes = %d", len(modes))
	}
	get := func(sub string) Fig9Mode {
		for _, m := range modes {
			if strings.Contains(m.Name, sub) {
				return m
			}
		}
		t.Fatalf("mode %q missing", sub)
		return Fig9Mode{}
	}
	untuned := get("untuned")
	tuned := get("tuned (cb")
	h5 := get("HDF5")
	cdf5 := get("CDF-5")
	// Claim: untuned reads most of the file; tuning cuts the *extra*
	// bytes ~4x ("four times less than the untuned access pattern");
	// contiguous formats need the least.
	untunedExtra := untuned.Stats.PhysicalBytes - untuned.Stats.UsefulBytes
	tunedExtra := tuned.Stats.PhysicalBytes - tuned.Stats.UsefulBytes
	if untunedExtra < 3*tunedExtra {
		t.Errorf("tuning should cut over-read ~4x: extra %d vs %d", untunedExtra, tunedExtra)
	}
	if tuned.Stats.PhysicalBytes <= h5.Stats.PhysicalBytes {
		t.Error("contiguous format should need the least I/O")
	}
	// "The result was the same as HDF5" for the 64-bit netCDF.
	if r := float64(cdf5.Stats.PhysicalBytes) / float64(h5.Stats.PhysicalBytes); r < 0.9 || r > 1.1 {
		t.Errorf("CDF-5 and HDF5-like should match: ratio %.2f", r)
	}
	// The untuned map is dark over most of the file; the tuned map
	// leaves most bins untouched.
	dark := func(m Fig9Mode) float64 {
		var s float64
		for _, v := range m.Map {
			s += v
		}
		return s / float64(len(m.Map))
	}
	if dark(untuned) < 0.5 {
		t.Errorf("untuned map should be mostly dark: %.2f", dark(untuned))
	}
	if dark(tuned) > dark(untuned)/2 {
		t.Errorf("tuned map should be much lighter: %.2f vs %.2f", dark(tuned), dark(untuned))
	}
	if !strings.Contains(report, "Fig 9") {
		t.Error("report missing title")
	}
}

func TestFig10Claims(t *testing.T) {
	modes, report, err := Fig10(mach)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 5 {
		t.Fatalf("modes = %d", len(modes))
	}
	// Claim: ordered fastest->slowest: raw first, untuned netCDF last
	// (Fig 10's bar order), and time anticorrelates with density.
	if !strings.Contains(modes[0].Name, "raw") {
		t.Errorf("fastest mode = %q, want raw", modes[0].Name)
	}
	if !strings.Contains(modes[4].Name, "untuned") {
		t.Errorf("slowest mode = %q, want untuned netCDF", modes[4].Name)
	}
	for i := 1; i < len(modes); i++ {
		if modes[i].Time < modes[i-1].Time {
			t.Error("modes not sorted by time")
		}
		if modes[i].Density > modes[i-1].Density+1e-9 {
			t.Errorf("density should fall as time grows: %+v then %+v", modes[i-1], modes[i])
		}
	}
	if !strings.Contains(report, "Fig 10") {
		t.Error("report missing title")
	}
}

// The read planner on the machine the paper measured. Every Fig 7 point
// reads the 1120^3 netCDF record file, whose 5,017,600-byte record is
// under the default window: there a frame with Hints{} must plan the
// paper's hand tuning and reproduce the tuned column bit for bit. At
// every Fig 7, 9 and 10 point, in every format, the planned window's
// modeled read time must be no worse than ROMIO's default window's.
func TestReadPlannerOnPaperPoints(t *testing.T) {
	pts, _, err := Fig7(mach)
	if err != nil {
		t.Fatal(err)
	}
	scene, err := core.PaperScene(1120)
	if err != nil {
		t.Fatal(err)
	}
	model := func(s core.Scene, p int, f core.Format, h mpiio.Hints) *core.ModelResult {
		t.Helper()
		r, err := core.RunModel(core.ModelConfig{Scene: s, Procs: p, Format: f, Hints: h, Machine: mach})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, pt := range pts {
		if bw := model(scene, pt.Procs, core.FormatNetCDF, mpiio.Hints{}).ReadBW; bw != pt.TunedBW {
			t.Errorf("p=%d: planned netCDF read %v B/s, tuned column %v", pt.Procs, bw, pt.TunedBW)
		}
	}
	pressure := scene
	pressure.Variable = volume.VarPressure // Fig 9 and 10 read it
	type point struct {
		scene   core.Scene
		procs   int
		formats []core.Format
	}
	var points []point
	for _, p := range ProcSweep {
		points = append(points, point{scene, p, []core.Format{core.FormatRaw, core.FormatNetCDF}})
	}
	points = append(points, point{pressure, 2048,
		[]core.Format{core.FormatRaw, core.FormatNetCDF, core.FormatCDF5, core.FormatH5}})
	for _, pt := range points {
		for _, f := range pt.formats {
			planned := model(pt.scene, pt.procs, f, mpiio.Hints{}).Times.IO
			def := model(pt.scene, pt.procs, f, mpiio.Hints{CBBufferSize: mpiio.DefaultCBBufferSize}).Times.IO
			if planned > def {
				t.Errorf("p=%d %v: planned window reads in %.3f s, the default in %.3f s", pt.procs, f, planned, def)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	byM, rep, err := AblationCompositors(mach, 16384)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's choice (2048 at 16K) should beat m = n.
	if byM[2048] >= byM[16384] {
		t.Errorf("m=2048 (%.3f) should beat m=16384 (%.3f)", byM[2048], byM[16384])
	}
	if !strings.Contains(rep, "Ablation") {
		t.Error("missing title")
	}
	if _, err := AblationCompositeAlgo(mach); err != nil {
		t.Fatal(err)
	}
	byW, _, err := AblationCBBuffer(mach)
	if err != nil {
		t.Fatal(err)
	}
	rec := int64(1120 * 1120 * 4)
	if byW[rec] > byW[rec*8] {
		t.Errorf("record-sized buffer (%.1f) should beat 8x record (%.1f)", byW[rec], byW[rec*8])
	}
	if _, err := AblationContention(mach); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationAggregators(mach); err != nil {
		t.Fatal(err)
	}
}

func TestCrossMachine(t *testing.T) {
	s, err := CrossMachine()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Cray") || !strings.Contains(s, "Blue Gene") {
		t.Errorf("cross-machine report incomplete:\n%s", s)
	}
}

func TestAblationPlacement(t *testing.T) {
	s, err := AblationPlacement(mach, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"block", "round-robin", "random"} {
		if !strings.Contains(s, want) {
			t.Errorf("placement report missing %q", want)
		}
	}
}

func TestAblationNetworkModel(t *testing.T) {
	s, err := AblationNetworkModel(mach)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "flow simulation") {
		t.Errorf("report incomplete:\n%s", s)
	}
}

func TestIOSignature(t *testing.T) {
	s, err := IOSignature(mach)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "I/O signature") || !strings.Contains(s, "untuned") {
		t.Errorf("signature report incomplete:\n%s", s)
	}
}

func TestPreprocessModel(t *testing.T) {
	s, err := PreprocessModel(mach)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "2240^3 -> 4480^3") {
		t.Errorf("preprocess report incomplete:\n%s", s)
	}
}

func TestImbalanceClaims(t *testing.T) {
	runs, report, err := Imbalance(mach)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4*len(ImbalanceSweep) {
		t.Fatalf("runs = %d, want %d", len(runs), 4*len(ImbalanceSweep))
	}
	// Claim: the regular decomposition keeps render nearly balanced at
	// every scale while the critical path still runs through it.
	for _, r := range runs[:len(ImbalanceSweep)] {
		ri := r.Analysis.PhaseInfo("render")
		if ri == nil {
			t.Fatalf("no render entry at %d cores", r.Procs)
		}
		if ri.Imbalance < 1 || ri.Imbalance > 1.1 {
			t.Errorf("render imbalance at %d cores = %v, want (1, 1.1]", r.Procs, ri.Imbalance)
		}
		if r.Analysis.Dominant != "render" {
			t.Errorf("dominant phase at %d cores = %q", r.Procs, r.Analysis.Dominant)
		}
	}
	// Claim: at fixed core count, compositing imbalance falls
	// monotonically as m grows (more compositors share the collection).
	byConfig := map[[2]int]float64{}
	for _, r := range runs[len(ImbalanceSweep):] {
		ci := r.Analysis.PhaseInfo("composite")
		if ci == nil {
			t.Fatalf("no composite entry at %d cores, m=%d", r.Procs, r.Compositors)
		}
		byConfig[[2]int{r.Procs, r.Compositors}] = ci.Imbalance
	}
	for _, p := range ImbalanceSweep {
		var prev float64
		var ms []int
		for cfg := range byConfig {
			if cfg[0] == p {
				ms = append(ms, cfg[1])
			}
		}
		sort.Ints(ms)
		for i, m := range ms {
			imb := byConfig[[2]int{p, m}]
			if i > 0 && imb >= prev {
				t.Errorf("composite imbalance at %d cores not falling: m=%d gives %v after %v", p, m, imb, prev)
			}
			prev = imb
		}
	}
	for _, want := range []string{"Render imbalance", "Compositing imbalance", "critical path at", "fragment arrival skew"} {
		if !strings.Contains(report, want) {
			t.Errorf("imbalance report missing %q", want)
		}
	}
}
