package bench

import (
	"fmt"

	"bgpvr/internal/core"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
)

// AblationCompositors sweeps the compositor count m for a fixed renderer
// count n — the design space behind the paper's empirical choice of 1K/2K
// compositors ("we arrived at these values empirically after testing
// combinations of renderers and compositors").
func AblationCompositors(mach machine.Machine, n int) (map[int]float64, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	out := map[int]float64{}
	t := Table{
		Title:   fmt.Sprintf("Ablation: compositors m for n=%d renderers", n),
		Columns: []string{"m", "composite time (s)"},
	}
	for m := 128; m <= n; m *= 2 {
		r, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: n, Compositors: m, Format: core.FormatGenerate, Machine: mach})
		if err != nil {
			return nil, "", err
		}
		out[m] = r.Times.Composite
		t.AddRow(fmt.Sprint(m), f3(r.Times.Composite))
	}
	return out, t.String(), nil
}

// AblationCompositeAlgo compares direct-send (improved), direct-send
// (original) and binary swap across the sweep.
func AblationCompositeAlgo(mach machine.Machine) (string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return "", err
	}
	t := Table{
		Title:   "Ablation: compositing algorithm (time in s)",
		Columns: []string{"procs", "direct-send improved", "direct-send original", "binary swap"},
	}
	for _, p := range []int{256, 1024, 4096, 16384, 32768} {
		impr, err := core.RunModel(core.ModelConfig{Scene: scene, Procs: p, Format: core.FormatGenerate, Machine: mach})
		if err != nil {
			return "", err
		}
		orig, err := core.RunModel(core.ModelConfig{Scene: scene, Procs: p, Compositors: p, Format: core.FormatGenerate, Machine: mach})
		if err != nil {
			return "", err
		}
		bs, err := core.RunModel(core.ModelConfig{Scene: scene, Procs: p, Format: core.FormatGenerate, Algo: core.CompositeBinarySwap, Machine: mach})
		if err != nil {
			return "", err
		}
		t.AddRow(fmt.Sprint(p), f3(impr.Times.Composite), f3(orig.Times.Composite), f3(bs.Times.Composite))
	}
	return t.String(), nil
}

// AblationCBBuffer sweeps the collective buffer size around the netCDF
// record size — the paper's tuning knob.
func AblationCBBuffer(mach machine.Machine) (map[int64]float64, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	rec := int64(scene.Dims.X) * int64(scene.Dims.Y) * 4
	out := map[int64]float64{}
	t := Table{
		Title:   "Ablation: cb_buffer_size on the netCDF record file (2K cores)",
		Columns: []string{"cb_buffer", "x record", "I/O time (s)", "density"},
	}
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		w := int64(float64(rec) * mult)
		r, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: 2048, Format: core.FormatNetCDF,
			Hints: mpiio.Hints{CBBufferSize: w}, Machine: mach})
		if err != nil {
			return nil, "", err
		}
		out[w] = r.Times.IO
		t.AddRow(fmt.Sprint(w), fmt.Sprintf("%.2f", mult), f2(r.Times.IO), f3(r.IO.Density()))
	}
	return out, t.String(), nil
}

// AblationContention compares the full network model against one with
// the shared-link contention term disabled, for the original compositing
// scheme at scale — showing the Fig 4 falloff needs the contention and
// small-message congestion mechanisms.
func AblationContention(mach machine.Machine) (string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return "", err
	}
	t := Table{
		Title:   "Ablation: network contention model (original compositing, time in s)",
		Columns: []string{"procs", "full model", "no link contention", "no queue penalty"},
	}
	noQueue := mach
	noQueue.Torus.QueuePenalty = 0
	for _, p := range []int{4096, 16384, 32768} {
		full, err := core.RunModel(core.ModelConfig{Scene: scene, Procs: p, Compositors: p, Format: core.FormatGenerate, Machine: mach})
		if err != nil {
			return "", err
		}
		noCont, err := core.RunModel(core.ModelConfig{Scene: scene, Procs: p, Compositors: p, Format: core.FormatGenerate, Machine: mach, NoContention: true})
		if err != nil {
			return "", err
		}
		nq, err := core.RunModel(core.ModelConfig{Scene: scene, Procs: p, Compositors: p, Format: core.FormatGenerate, Machine: noQueue})
		if err != nil {
			return "", err
		}
		t.AddRow(fmt.Sprint(p), f3(full.Times.Composite), f3(noCont.Times.Composite), f3(nq.Times.Composite))
	}
	return t.String(), nil
}

// AblationAggregators sweeps the I/O aggregator count for the raw read.
func AblationAggregators(mach machine.Machine) (string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return "", err
	}
	t := Table{
		Title:   "Ablation: I/O aggregator count (raw 1120^3, 16K cores)",
		Columns: []string{"aggregators", "I/O time (s)"},
	}
	for _, a := range []int{16, 64, 256, 512, 1024, 4096} {
		r, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: 16384, Format: core.FormatRaw,
			Hints: mpiio.Hints{CBNodes: a}, Machine: mach})
		if err != nil {
			return "", err
		}
		t.AddRow(fmt.Sprint(a), f2(r.Times.IO))
	}
	return t.String(), nil
}
