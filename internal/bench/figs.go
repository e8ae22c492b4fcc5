package bench

import (
	"fmt"

	"bgpvr/internal/core"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/torus"
)

// Fig3Point is one core count of the Fig 3 sweep.
type Fig3Point struct {
	Procs             int
	IO                float64
	Render            float64
	CompositeOriginal float64
	CompositeImproved float64
	Total             float64 // with improved compositing, as the paper plots
}

// Fig3 sweeps 64..32K cores on the 1120^3 / 1600^2 raw-format frame and
// reports total and component times with both compositing schemes.
func Fig3(mach machine.Machine) ([]Fig3Point, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	pts := make([]Fig3Point, len(ProcSweep))
	err = sweep(len(ProcSweep), func(i int) error {
		p := ProcSweep[i]
		orig, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: p, Compositors: p, Format: core.FormatRaw, Machine: mach})
		if err != nil {
			return err
		}
		impr, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: p, Format: core.FormatRaw, Machine: mach})
		if err != nil {
			return err
		}
		pts[i] = Fig3Point{
			Procs:             p,
			IO:                impr.Times.IO,
			Render:            impr.Times.Render,
			CompositeOriginal: orig.Times.Composite,
			CompositeImproved: impr.Times.Composite,
			Total:             impr.Times.Total,
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	t := Table{
		Title:   "Fig 3: total and component time, 1120^3 raw, 1600^2 image (seconds)",
		Columns: []string{"procs", "total", "raw I/O", "render", "orig comp", "impr comp"},
	}
	for _, pt := range pts {
		t.AddRow(fmt.Sprint(pt.Procs), f2(pt.Total), f2(pt.IO), f2(pt.Render),
			f3(pt.CompositeOriginal), f3(pt.CompositeImproved))
	}
	return pts, t.String(), nil
}

// Fig4Point is one core count of the composite-bandwidth plot.
type Fig4Point struct {
	Procs        int
	MsgBytes     int64 // the paper's secondary axis: image bytes / m
	PeakBW       float64
	OriginalBW   float64
	ImprovedBW   float64
	OrigMessages int
}

// Fig4 reports effective compositing communication bandwidth against
// message size and core count, with the theoretical peak curve.
func Fig4(mach machine.Machine) ([]Fig4Point, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	imgBytes := int64(scene.ImageW) * int64(scene.ImageH) * 4
	var ps []int
	for _, p := range ProcSweep {
		if p >= 256 { // the paper's Fig 4 starts at 256
			ps = append(ps, p)
		}
	}
	pts := make([]Fig4Point, len(ps))
	err = sweep(len(ps), func(i int) error {
		p := ps[i]
		orig, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: p, Compositors: p, Format: core.FormatGenerate, Machine: mach})
		if err != nil {
			return err
		}
		impr, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: p, Format: core.FormatGenerate, Machine: mach})
		if err != nil {
			return err
		}
		msgSize := imgBytes / int64(p)
		// Peak: every node-pair transfer of one message at full link
		// bandwidth, aggregated over p concurrent transfers.
		peakPer := torus.PeakPhaseTime(mach.Torus, msgSize)
		peak := float64(imgBytes) / peakPer
		pts[i] = Fig4Point{
			Procs:        p,
			MsgBytes:     msgSize,
			PeakBW:       peak,
			OriginalBW:   orig.Composite.Bandwidth(),
			ImprovedBW:   impr.Composite.Bandwidth(),
			OrigMessages: orig.Messages,
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	t := Table{
		Title:   "Fig 4: compositing communication bandwidth vs message size (MB/s)",
		Columns: []string{"procs", "msg B", "peak", "improved", "original", "orig msgs"},
	}
	for _, pt := range pts {
		t.AddRow(fmt.Sprint(pt.Procs), fmt.Sprint(pt.MsgBytes), mbps(pt.PeakBW),
			mbps(pt.ImprovedBW), mbps(pt.OriginalBW), fmt.Sprint(pt.OrigMessages))
	}
	return pts, t.String(), nil
}

// Fig5Point is one (size, procs) total frame time.
type Fig5Point struct {
	Grid  int
	Procs int
	Total float64
}

// Fig5 reports the total frame time for the three problem sizes across
// the core-count sweep.
func Fig5(mach machine.Machine) ([]Fig5Point, string, error) {
	t := Table{
		Title:   "Fig 5: overall frame time (s) for three data/image sizes",
		Columns: []string{"procs", "1120^3/1600^2", "2240^3/2048^2", "4480^3/4096^2"},
	}
	rows := map[int][]string{}
	type fig5Job struct {
		scene core.Scene
		n, p  int
	}
	var jobs []fig5Job
	for _, n := range []int{1120, 2240, 4480} {
		scene, err := core.PaperScene(n)
		if err != nil {
			return nil, "", err
		}
		for _, p := range ProcSweep {
			// The larger problems do not fit small partitions in-core:
			// 2 GB/node, 4 ranks/node -> ~0.4 GB usable per rank.
			if int64(n)*int64(n)*int64(n)*4/int64(p) > 400<<20 {
				continue
			}
			jobs = append(jobs, fig5Job{scene: scene, n: n, p: p})
		}
	}
	pts := make([]Fig5Point, len(jobs))
	err := sweep(len(jobs), func(i int) error {
		j := jobs[i]
		r, err := core.RunModel(core.ModelConfig{
			Scene: j.scene, Procs: j.p, Format: core.FormatRaw, Machine: mach})
		if err != nil {
			return err
		}
		pts[i] = Fig5Point{Grid: j.n, Procs: j.p, Total: r.Times.Total}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for _, p := range ProcSweep {
		row := []string{fmt.Sprint(p), "-", "-", "-"}
		found := false
		for _, pt := range pts {
			if pt.Procs != p {
				continue
			}
			found = true
			col := map[int]int{1120: 1, 2240: 2, 4480: 3}[pt.Grid]
			row[col] = f2(pt.Total)
		}
		if found {
			rows[p] = row
		}
	}
	for _, p := range ProcSweep {
		if r, ok := rows[p]; ok {
			t.AddRow(r...)
		}
	}
	return pts, t.String(), nil
}

// Table2Row mirrors one row of the paper's Table II.
type Table2Row struct {
	Grid        int
	TimestepGB  float64
	ImagePixels int
	Procs       int
	TotalTime   float64
	PctIO       float64
	PctComp     float64
	ReadBW      float64 // bytes/s
}

// Table2 reproduces "Volume rendering performance at large sizes".
func Table2(mach machine.Machine) ([]Table2Row, string, error) {
	var rows []Table2Row
	t := Table{
		Title:   "Table II: volume rendering performance at large sizes",
		Columns: []string{"grid", "step GB", "image", "procs", "total s", "% I/O", "% comp", "read GB/s"},
	}
	for _, n := range []int{2240, 4480} {
		scene, err := core.PaperScene(n)
		if err != nil {
			return nil, "", err
		}
		rawBytes, err := core.FileSizeOf(core.FormatRaw, scene)
		if err != nil {
			return nil, "", err
		}
		for _, p := range LargeProcSweep {
			r, err := core.RunModel(core.ModelConfig{
				Scene: scene, Procs: p, Format: core.FormatRaw, Machine: mach})
			if err != nil {
				return nil, "", err
			}
			row := Table2Row{
				Grid:        n,
				TimestepGB:  float64(rawBytes) / (1 << 30),
				ImagePixels: scene.ImageW,
				Procs:       p,
				TotalTime:   r.Times.Total,
				PctIO:       core.Percent(r.Times.IO, r.Times.Total),
				PctComp:     core.Percent(r.Times.Composite, r.Times.Total),
				ReadBW:      r.ReadBW,
			}
			rows = append(rows, row)
			t.AddRow(fmt.Sprintf("%d^3", n), f1(row.TimestepGB),
				fmt.Sprintf("%d^2", row.ImagePixels), fmt.Sprint(p),
				f2(row.TotalTime), f1(row.PctIO), f1(row.PctComp), gbps(row.ReadBW))
		}
	}
	return rows, t.String(), nil
}

// Fig6Point is one core count's stage share.
type Fig6Point struct {
	Procs                     int
	PctIO, PctRender, PctComp float64
}

// Fig6 reports the percentage of frame time in each stage across the
// sweep (stacked-area data).
func Fig6(mach machine.Machine) ([]Fig6Point, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	t := Table{
		Title:   "Fig 6: percent of total frame time per stage, 1120^3 raw",
		Columns: []string{"procs", "% I/O", "% render", "% composite"},
	}
	pts := make([]Fig6Point, len(ProcSweep))
	err = sweep(len(ProcSweep), func(i int) error {
		p := ProcSweep[i]
		r, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: p, Format: core.FormatRaw, Machine: mach})
		if err != nil {
			return err
		}
		pts[i] = Fig6Point{
			Procs:     p,
			PctIO:     core.Percent(r.Times.IO, r.Times.Total),
			PctRender: core.Percent(r.Times.Render, r.Times.Total),
			PctComp:   core.Percent(r.Times.Composite, r.Times.Total),
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for _, pt := range pts {
		t.AddRow(fmt.Sprint(pt.Procs), f1(pt.PctIO), f1(pt.PctRender), f1(pt.PctComp))
	}
	return pts, t.String(), nil
}

// Fig7Point is one core count's I/O bandwidth per mode.
type Fig7Point struct {
	Procs                  int
	RawBW, TunedBW, OrigBW float64 // useful bytes/s
}

// Fig7 reports application I/O bandwidth for raw, tuned PnetCDF, and
// original (untuned) PnetCDF modes reading the 1120^3 variable. The
// untuned mode asks for ROMIO's default window explicitly: left zero, a
// frame's window is the read planner's, which here is the tuned one.
func Fig7(mach machine.Machine) ([]Fig7Point, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	recSize := int64(scene.Dims.X) * int64(scene.Dims.Y) * 4
	t := Table{
		Title:   "Fig 7: I/O bandwidth (MB/s), 1120^3",
		Columns: []string{"procs", "raw", "tuned PnetCDF", "original PnetCDF"},
	}
	pts := make([]Fig7Point, len(ProcSweep))
	err = sweep(len(ProcSweep), func(i int) error {
		p := ProcSweep[i]
		run := func(format core.Format, window int64) (float64, error) {
			cfg := core.ModelConfig{Scene: scene, Procs: p, Format: format, Machine: mach}
			cfg.Hints.CBBufferSize = window
			r, err := core.RunModel(cfg)
			if err != nil {
				return 0, err
			}
			return r.ReadBW, nil
		}
		pt := Fig7Point{Procs: p}
		var err error
		if pt.RawBW, err = run(core.FormatRaw, 0); err != nil {
			return err
		}
		if pt.TunedBW, err = run(core.FormatNetCDF, recSize); err != nil {
			return err
		}
		if pt.OrigBW, err = run(core.FormatNetCDF, mpiio.DefaultCBBufferSize); err != nil {
			return err
		}
		pts[i] = pt
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for _, pt := range pts {
		t.AddRow(fmt.Sprint(pt.Procs), mbps(pt.RawBW), mbps(pt.TunedBW), mbps(pt.OrigBW))
	}
	return pts, t.String(), nil
}
