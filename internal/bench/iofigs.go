package bench

import (
	"fmt"
	"sort"
	"strings"

	"bgpvr/internal/core"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/volume"
)

// Fig8 dumps the netCDF record-variable layout (the organization diagram
// of Fig 8): the first few records of each variable with their file
// offsets, demonstrating the record-by-record interleaving.
func Fig8(n int) (string, error) {
	scene, err := core.PaperScene(n)
	if err != nil {
		return "", err
	}
	names := make([]string, volume.NumVars)
	for v := volume.Var(0); v < volume.NumVars; v++ {
		names[v] = v.Name()
	}
	f, err := netcdf.NewVolumeFile(netcdf.V2, scene.Dims, names, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: netCDF record variable organization, %d^3, %d variables\n", n, len(names))
	fmt.Fprintf(&b, "record size (all variables, one Z slice each): %d bytes\n", f.RecSize())
	fmt.Fprintf(&b, "file size: %d bytes\n", netcdf.FileSize(f))
	type seg struct {
		off  int64
		name string
		rec  int64
	}
	var segs []seg
	for rec := int64(0); rec < 3; rec++ {
		for i := range f.Vars {
			v := &f.Vars[i]
			segs = append(segs, seg{off: v.Begin + rec*f.RecSize(), name: v.Name, rec: rec})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].off < segs[j].off })
	for _, s := range segs {
		fmt.Fprintf(&b, "  offset %14d: %-12s record %d (one %dx%d slice)\n",
			s.off, s.name, s.rec, scene.Dims.X, scene.Dims.Y)
	}
	b.WriteString("  ... (records interleave through the whole file)\n")
	return b.String(), nil
}

// Fig9Mode is one access-pattern panel of Fig 9.
type Fig9Mode struct {
	Name  string
	Stats iotrace.Stats
	// Map is the per-bin fraction of the file read (Fig 9's dark
	// blocks), 64 bins wide x Rows rows.
	Map  []float64
	Rows int
}

// Fig9 computes the access-pattern maps of reading the pressure variable
// from the 1120^3 five-variable file with 2K cores: untuned netCDF,
// tuned netCDF, and the contiguous formats (HDF5-like / CDF-5).
func Fig9(mach machine.Machine) ([]Fig9Mode, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	scene.Variable = volume.VarPressure
	const procs = 2048
	recSize := int64(scene.Dims.X) * int64(scene.Dims.Y) * 4
	aggs := mach.Aggregators(procs)

	modes := []struct {
		name   string
		format core.Format
		window int64
	}{
		{"netCDF untuned", core.FormatNetCDF, mpiio.DefaultCBBufferSize},
		{"netCDF tuned (cb=record)", core.FormatNetCDF, recSize},
		{"HDF5-like (contiguous)", core.FormatH5, 0},
		{"netCDF CDF-5 (64-bit, contiguous)", core.FormatCDF5, 0},
	}
	var out []Fig9Mode
	var b strings.Builder
	b.WriteString("Fig 9: file access patterns reading 1 of 5 variables, 2K cores\n")
	for _, m := range modes {
		r, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: procs, Format: m.format,
			Hints: mpiio.Hints{CBBufferSize: m.window, CBNodes: aggs}, Machine: mach})
		if err != nil {
			return nil, "", err
		}
		fileSize, err := core.FileSizeOf(m.format, scene)
		if err != nil {
			return nil, "", err
		}
		// Rebuild the plan to get the access list for the map.
		lay := planFor(scene, m.format, mpiio.Hints{CBBufferSize: m.window, CBNodes: aggs})
		const width, rows = 64, 8
		fracs := iotrace.Map(lay.Accesses, fileSize, width*rows)
		out = append(out, Fig9Mode{Name: m.name, Stats: r.IO, Map: fracs, Rows: rows})
		fmt.Fprintf(&b, "\n%s: %d accesses, %.1f GB physical for %.1f GB useful (density %.2f)\n",
			m.name, r.IO.Accesses, float64(r.IO.PhysicalBytes)/1e9,
			float64(r.IO.UsefulBytes)/1e9, r.IO.Density())
		b.WriteString(iotrace.ASCIIMap(fracs, width))
		b.WriteByte('\n')
	}
	return out, b.String(), nil
}

// planFor rebuilds the mpiio plan a model run used (shared by Fig 9/10).
func planFor(scene core.Scene, format core.Format, hints mpiio.Hints) *mpiio.Plan {
	union, err := core.UnionRuns(format, scene)
	if err != nil {
		return &mpiio.Plan{}
	}
	return mpiio.BuildPlan(union, hints)
}

// Fig10Mode is one bar of the synthetic I/O benchmark.
type Fig10Mode struct {
	Name    string
	Time    float64
	Density float64
}

// Fig10 runs the synthetic I/O benchmark of Fig 10: the five I/O modes
// reading 1120^3 elements with 2K cores, ordered fastest to slowest,
// showing the correlation between read time and data density.
func Fig10(mach machine.Machine) ([]Fig10Mode, string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return nil, "", err
	}
	scene.Variable = volume.VarPressure
	const procs = 2048
	recSize := int64(scene.Dims.X) * int64(scene.Dims.Y) * 4
	modes := []struct {
		name   string
		format core.Format
		window int64
	}{
		{"raw", core.FormatRaw, 0},
		{"new netCDF (CDF-5)", core.FormatCDF5, 0},
		{"HDF5-like", core.FormatH5, 0},
		{"tuned netCDF", core.FormatNetCDF, recSize},
		{"untuned netCDF", core.FormatNetCDF, mpiio.DefaultCBBufferSize},
	}
	var out []Fig10Mode
	for _, m := range modes {
		r, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: procs, Format: m.format,
			Hints: mpiio.Hints{CBBufferSize: m.window}, Machine: mach})
		if err != nil {
			return nil, "", err
		}
		out = append(out, Fig10Mode{Name: m.name, Time: r.Times.IO, Density: r.IO.Density()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	t := Table{
		Title:   "Fig 10: five I/O modes, 1120^3 elements, 2K cores (fastest first)",
		Columns: []string{"mode", "read time (s)", "data density"},
	}
	for _, m := range out {
		t.AddRow(m.Name, f2(m.Time), f3(m.Density))
	}
	return out, t.String(), nil
}
