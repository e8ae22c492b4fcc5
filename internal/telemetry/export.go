package telemetry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bgpvr/internal/grid"
	"bgpvr/internal/stats"
	"bgpvr/internal/torus"
)

// Metric selects the per-link quantity a heatmap renders.
type Metric uint8

// The heatmap metrics.
const (
	// MetricBytes is payload carried per link.
	MetricBytes Metric = iota
	// MetricUtilization is time-weighted utilization per link.
	MetricUtilization
	// MetricFlows is peak concurrent flows per link — the contention
	// map proper.
	MetricFlows
)

func (m Metric) String() string {
	switch m {
	case MetricBytes:
		return "bytes"
	case MetricUtilization:
		return "utilization"
	case MetricFlows:
		return "flows"
	}
	return "unknown"
}

func (u *LinkUsage) metric(l int, m Metric) float64 {
	switch m {
	case MetricBytes:
		return float64(u.Bytes[l])
	case MetricUtilization:
		return u.Utilization(l)
	case MetricFlows:
		return float64(u.Flows[l])
	}
	return 0
}

// HottestLinks renders the k heaviest links (by bytes carried) as a
// plain-text table: torus coordinate and direction, payload, peak
// concurrent flows, time-weighted utilization, busy time, and
// bottleneck events. It is the quickest way to see where a phase's
// contention lives — direct-send at m=n lights up far more links than
// m<n.
func HottestLinks(top torus.Topology, u *LinkUsage, k int) string {
	if u.Links() == 0 {
		return "(no link telemetry)\n"
	}
	order := make([]int, 0, u.Links())
	for l := range u.Bytes {
		if u.Bytes[l] > 0 || u.Flows[l] > 0 {
			order = append(order, l)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if u.Bytes[a] != u.Bytes[b] {
			return u.Bytes[a] > u.Bytes[b]
		}
		return a < b
	})
	if k > 0 && len(order) > k {
		order = order[:k]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "hottest links (%d of %d carrying traffic; phase %s)\n",
		len(order), u.ActiveLinks(), stats.Seconds(u.Duration))
	fmt.Fprintf(&sb, "%-14s %-4s %10s %7s %7s %10s %6s\n",
		"node", "dir", "bytes", "flows", "util", "busy", "bneck")
	for _, l := range order {
		node, dir := torus.LinkOf(l)
		c := top.Coord(node)
		fmt.Fprintf(&sb, "(%3d,%3d,%3d) %-4s %10s %7d %6.1f%% %10s %6d\n",
			c.X, c.Y, c.Z, torus.DirName(dir), stats.Bytes(u.Bytes[l]),
			u.Flows[l], 100*u.Utilization(l), stats.Seconds(u.BusySeconds[l]),
			u.Bottlenecks[l])
	}
	return sb.String()
}

// UtilizationSummary renders the aggregate view of a phase's link
// usage: totals, the heaviest and most contended links, and peak
// utilization.
func UtilizationSummary(top torus.Topology, u *LinkUsage) string {
	var sb strings.Builder
	mb, mbl := u.MaxBytes()
	mf, mfl := u.MaxFlows()
	fmt.Fprintf(&sb, "link usage: %d links, %d carrying traffic, total %s (bytes x hops)\n",
		u.Links(), u.ActiveLinks(), stats.Bytes(u.TotalBytes()))
	if mbl >= 0 {
		node, dir := torus.LinkOf(mbl)
		c := top.Coord(node)
		fmt.Fprintf(&sb, "  heaviest link:  (%d,%d,%d)%s %s (util %.1f%%)\n",
			c.X, c.Y, c.Z, torus.DirName(dir), stats.Bytes(mb), 100*u.Utilization(mbl))
	}
	if mfl >= 0 {
		node, dir := torus.LinkOf(mfl)
		c := top.Coord(node)
		fmt.Fprintf(&sb, "  most contended: (%d,%d,%d)%s %d concurrent flows\n",
			c.X, c.Y, c.Z, torus.DirName(dir), mf)
	}
	fmt.Fprintf(&sb, "  peak utilization %.1f%%, %d bottleneck events\n",
		100*u.PeakUtilization(), u.TotalBottlenecks())
	return sb.String()
}

// WriteHeatmapCSV writes one row per torus node with its coordinate
// and the node's outgoing-link load: total bytes, the maximum over its
// six links of bytes, flows and utilization, and summed bottleneck
// events. The fixed column order and %g formatting make the output
// golden-testable and trivially loadable (pandas, gnuplot).
func WriteHeatmapCSV(w io.Writer, top torus.Topology, u *LinkUsage) error {
	if _, err := fmt.Fprintf(w, "# torus %dx%dx%d, %d directed links, phase_sec=%g\n",
		top.Dims.X, top.Dims.Y, top.Dims.Z, u.Links(), u.Duration); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "x,y,z,node,out_bytes,max_link_bytes,max_link_flows,max_link_util,bottlenecks"); err != nil {
		return err
	}
	for node := 0; node < top.Nodes(); node++ {
		c := top.Coord(node)
		var outBytes, maxBytes int64
		var maxFlows int32
		var maxUtil float64
		var bnecks int64
		for dir := 0; dir < 6; dir++ {
			l := torus.LinkIndex(node, dir)
			outBytes += u.Bytes[l]
			if u.Bytes[l] > maxBytes {
				maxBytes = u.Bytes[l]
			}
			if u.Flows[l] > maxFlows {
				maxFlows = u.Flows[l]
			}
			if v := u.Utilization(l); v > maxUtil {
				maxUtil = v
			}
			bnecks += int64(u.Bottlenecks[l])
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%g,%d\n",
			c.X, c.Y, c.Z, node, outBytes, maxBytes, maxFlows, maxUtil, bnecks); err != nil {
			return err
		}
	}
	return nil
}

// WriteHeatmapPGM writes a plain (P2) PGM grayscale image of the
// per-node metric: width is the torus X extent and the Y slices of
// each Z plane are stacked vertically (height Y*Z), so a glance shows
// which region of the machine is hot. Each node's value is the maximum
// of the metric over its six outgoing links, scaled to 255 at the
// global peak.
func WriteHeatmapPGM(w io.Writer, top torus.Topology, u *LinkUsage, m Metric) error {
	vals := make([]float64, top.Nodes())
	var peak float64
	for node := range vals {
		var mx float64
		for dir := 0; dir < 6; dir++ {
			if v := u.metric(torus.LinkIndex(node, dir), m); v > mx {
				mx = v
			}
		}
		vals[node] = mx
		if mx > peak {
			peak = mx
		}
	}
	width, height := top.Dims.X, top.Dims.Y*top.Dims.Z
	if _, err := fmt.Fprintf(w, "P2\n# bgpvr link heatmap: metric=%s peak=%g, %d Z-slices of %dx%d stacked\n%d %d\n255\n",
		m, peak, top.Dims.Z, top.Dims.X, top.Dims.Y, width, height); err != nil {
		return err
	}
	for z := 0; z < top.Dims.Z; z++ {
		for y := 0; y < top.Dims.Y; y++ {
			for x := 0; x < top.Dims.X; x++ {
				v := 0
				if peak > 0 {
					v = int(vals[top.ID(grid.I(x, y, z))]/peak*255 + 0.5)
				}
				sep := " "
				if x == width-1 {
					sep = "\n"
				}
				if _, err := fmt.Fprintf(w, "%d%s", v, sep); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteHeatmapFiles writes base.csv and base.pgm next to each other,
// creating missing parent directories, and returns their paths.
func WriteHeatmapFiles(base string, top torus.Topology, u *LinkUsage, m Metric) (csvPath, pgmPath string, err error) {
	if dir := filepath.Dir(base); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", "", err
		}
	}
	csvPath, pgmPath = base+".csv", base+".pgm"
	cf, err := os.Create(csvPath)
	if err != nil {
		return "", "", err
	}
	defer cf.Close()
	if err := WriteHeatmapCSV(cf, top, u); err != nil {
		return "", "", err
	}
	pf, err := os.Create(pgmPath)
	if err != nil {
		return "", "", err
	}
	defer pf.Close()
	if err := WriteHeatmapPGM(pf, top, u, m); err != nil {
		return "", "", err
	}
	return csvPath, pgmPath, nil
}
