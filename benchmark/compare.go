package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so the
// numbers match the ones the benchmark is accepted on.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = min(max(j, 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultsFile{}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one workload's timed-run values of a metric.
func (f *resultsFile) values(workload, name string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			v = append(v, m.Value)
		}
	}
	return v
}

// runCompare prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound, and a verdict: regressed when
// the change's median is worse than the parent's by more than the
// bound, unresolved when it is not but either side's run-to-run spread
// is wider than the bound, ok otherwise.
func runCompare(out io.Writer, parentPath, changePath string) error {
	a, err := loadResults(parentPath)
	if err != nil {
		return err
	}
	b, err := loadResults(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "parent: %s (%s, %d cpus, %s, rev %s)\nchange: %s (%s, %d cpus, %s, rev %s)\n",
		parentPath, a.Host.CPU, a.Host.NumCPU, a.Host.GoVersion, a.Host.GitRev,
		changePath, b.Host.CPU, b.Host.NumCPU, b.Host.GoVersion, b.Host.GitRev)
	if a.Host.CPU != b.Host.CPU || a.Host.NumCPU != b.Host.NumCPU || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Fprintln(out, "WARNING: the two files come from different hosts; the verdicts below mean little")
	}
	fmt.Fprintf(out, "%-16s %-16s %5s %12s %12s %22s %7s %8s %8s  %s\n",
		"workload", "metric", "runs", "parent", "change", "change/parent", "bound", "spread-p", "spread-c", "verdict")
	counts := map[string]int{}
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, d.Name), b.values(w.name, d.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // a workload neither side ran
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-16s %-16s missing from one side\n", w.name, d.Name)
				counts["unresolved"]++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == higher {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
			case !(sa <= d.Bound) || !(sb <= d.Bound): // a NaN spread (one run) resolves nothing
				verdict = "unresolved"
			}
			counts[verdict]++
			fmt.Fprintf(out, "%-16s %-16s %2d/%-2d %12.6g %12.6g %8.4f of %-10.6g %6.0f%% %7.2f%% %7.2f%%  %s\n",
				w.name, d.Name, len(va), len(vb), ma, mb, mb/ma, ma, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
	}
	fmt.Fprintf(out, "%d ok, %d regressed, %d unresolved\n", counts["ok"], counts["regressed"], counts["unresolved"])
	return nil
}
