package bench

import (
	"fmt"
	"strings"

	"bgpvr/internal/core"
	"bgpvr/internal/machine"
	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
)

// LinkContentionRun is one direct-send configuration's link telemetry.
type LinkContentionRun struct {
	Compositors int
	Result      *core.ModelResult
	Net         *telemetry.NetTelemetry
}

// LinkContention records per-link telemetry for the direct-send
// compositing exchange at m = n (the paper's original scheme) and the
// improved m < n rule, on the same rendered frame. It is the
// topology-level view of the compositing collapse: at m = n the
// schedule floods the torus with tiny messages, so far more links
// carry flows and the most contended link sees several times more
// concurrent flows than under m < n — the contention the paper's
// improved compositor count relieves.
func LinkContention(mach machine.Machine, procs int) ([2]LinkContentionRun, string, error) {
	scene := core.DefaultScene(1120, 1600)
	var runs [2]LinkContentionRun
	ms := []int{procs, machine.ImprovedCompositors(procs)}
	err := sweep(len(ms), func(i int) error {
		nt := &telemetry.NetTelemetry{}
		res, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: procs, Compositors: ms[i],
			Format: core.FormatGenerate, Machine: mach, Net: nt,
		})
		if err != nil {
			return err
		}
		runs[i] = LinkContentionRun{Compositors: ms[i], Result: res, Net: nt}
		return nil
	})
	if err != nil {
		return runs, "", err
	}

	t := Table{
		Title: fmt.Sprintf("Link contention: direct-send at m=n vs improved m<n (%d cores, %d^3 volume, %d^2 image)",
			procs, scene.Dims.X, scene.ImageW),
		Columns: []string{"m", "msgs", "mean B", "composite s", "active links", "peak flows", "peak util", "max link"},
	}
	top := mach.TorusFor(procs)
	for _, r := range runs {
		u := r.Net.Links
		mf, _ := u.MaxFlows()
		mb, _ := u.MaxBytes()
		t.AddRow(fmt.Sprint(r.Compositors), fmt.Sprint(r.Result.Messages),
			fmt.Sprintf("%.0f", r.Result.MeanMessageBytes), f3(r.Result.Times.Composite),
			fmt.Sprint(u.ActiveLinks()), fmt.Sprint(mf),
			fmt.Sprintf("%.1f%%", 100*u.PeakUtilization()), stats.Bytes(mb))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	for _, r := range runs {
		fmt.Fprintf(&sb, "\nm = %d:\n%s", r.Compositors,
			telemetry.HottestLinks(top, r.Net.Links, 10))
	}
	return runs, sb.String(), nil
}
