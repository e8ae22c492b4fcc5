package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bgpvr/internal/critpath"
	"bgpvr/internal/trace"
	"bgpvr/internal/tree"
)

// goldenReport builds the deterministic report behind the golden file:
// a two-rank virtual trace, every histogram populated, link usage and
// tree ops. Runtime is deliberately absent (it never is deterministic).
func goldenReport() *Report {
	tr := trace.NewVirtual(2)
	for r := 0; r < 2; r++ {
		h := tr.Rank(r)
		h.Emit(trace.PhaseIO, "io", 0, 0.5)
		h.Emit(trace.PhaseRender, "render", 0.5, 0.25+0.05*float64(r))
		h.Emit(trace.PhaseComposite, "composite", 0.8, 0.1)
		h.Add(trace.CounterMessages, 4)
		h.Add(trace.CounterBytesSent, 1<<20)
	}
	nt := &NetTelemetry{}
	nt.ObserveSend(4096)
	nt.ObserveSend(5000)
	nt.ObserveCollective(64)
	nt.ObserveAccess(4 << 20)
	nt.ObserveTree(tree.OpBarrier, 0)
	nt.ObserveTree(tree.OpBarrier, 0)
	nt.ObserveTree(tree.OpReduce, 128)
	_, u := goldenUsage()
	nt.Links = u

	g := critpath.NewGraph(2)
	g.AddNode(0, trace.PhaseIO, "io", 0, 0.5)
	g.AddNode(1, trace.PhaseIO, "io", 0, 0.5)
	g.AddNode(0, trace.PhaseRender, "render", 0.5, 0.25)
	g.AddNode(1, trace.PhaseRender, "render", 0.5, 0.3)
	g.AddNodeEnd(0, trace.PhaseComposite, "composite", 0.85, 0.95)
	g.AddNodeEnd(1, trace.PhaseComposite, "composite", 0.85, 0.95)
	g.AddDep(critpath.Dep{Kind: critpath.DepBarrier, Src: 1, Dst: 0, SrcT: 0.8, DstT: 0.85})

	r := NewReport("golden")
	r.Config = map[string]string{"mode": "model", "procs": "2"}
	r.TotalSec = 0.95
	r.AddBreakdown(tr.Breakdown())
	r.AddNetTelemetry(nt)
	r.AddCritPath(critpath.Analyze(g, 1))
	r.Flowsim = &FlowsimStat{
		ApproxEps: 0.08, ObservedErr: 0.012, ErrExact: true,
		RegionSide: 4, Regions: 8, ModelLinks: 432, PhysLinks: 384,
		LowerBoundSec: 0.082, ExactSec: 0.085, ApproxSec: 0.084,
		Events: 120, Workers: 2,
	}
	return r
}

func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_golden.json", buf.Bytes())
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	r := goldenReport()
	r.AddRuntime(1.5)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ReportSchema || got.Label != "golden" || got.TotalSec != r.TotalSec {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Phases) != len(r.Phases) || len(got.Histograms) != len(r.Histograms) {
		t.Errorf("round trip lost sections: %d phases, %d histograms", len(got.Phases), len(got.Histograms))
	}
	if got.Network == nil || got.Network.MaxLinkBytes != r.Network.MaxLinkBytes {
		t.Errorf("round trip lost network section: %+v", got.Network)
	}
	if got.Runtime == nil || got.Runtime.WallSec != 1.5 {
		t.Errorf("round trip lost runtime section: %+v", got.Runtime)
	}
}

// TestReadReportSchemaMismatch pins the additive-schema rule: any
// schema from 1 up to ReportSchema reads, a newer one (whose fields this
// build could misread) or none at all is refused, and an older report
// compares with a current one on the sections both carry.
func TestReadReportSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, body := range []string{
		fmt.Sprintf(`{"schema": %d, "total_sec": 1}`, ReportSchema+1),
		`{"schema": 0, "total_sec": 1}`,
		`{"total_sec": 1}`,
	} {
		if _, err := ReadReport(write("bad.json", body)); err == nil {
			t.Errorf("%s not rejected", body)
		}
	}
	if _, err := ReadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file not rejected")
	}

	// Schema 5 predates the service section and flowsim's wall_sec;
	// schema 8 carries both. They join on total, phase and observed_err.
	old, err := ReadReport(write("v5.json", `{"schema": 5, "total_sec": 1,
		"phases": [{"name": "io", "mean_sec": 0.5}],
		"flowsim": {"approx_eps": 0.08, "observed_err": 0.01}}`))
	if err != nil {
		t.Fatalf("schema 5 refused: %v", err)
	}
	cur, err := ReadReport(write("v8.json", `{"schema": 8, "total_sec": 1.5,
		"phases": [{"name": "io", "mean_sec": 0.5}, {"name": "render", "mean_sec": 0.2}],
		"flowsim": {"approx_eps": 0.08, "observed_err": 0.01, "approx_sec": 2, "wall_sec": 3},
		"service": {"mode": "sweep", "points": [{"concurrency": 1, "requests": 1, "ok_2xx": 1}]}}`))
	if err != nil {
		t.Fatalf("schema 8 refused: %v", err)
	}
	got := map[string]bool{}
	for _, d := range Compare(old, cur, 0.10) {
		got[d.Metric] = d.Regression
	}
	want := map[string]bool{"total_sec": true, "phase io mean_sec": false, "flowsim observed_err": false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schema 5 vs 8 compared %v, want %v", got, want)
	}
}

// An injected >10% slowdown must come back flagged; matching times and
// sub-threshold drift must not.
func TestCompareReportsRegression(t *testing.T) {
	old := &Report{TotalSec: 1.0, Phases: []PhaseStat{
		{Name: "io", MeanSec: 0.5},
		{Name: "render", MeanSec: 0.3},
	}}
	cur := &Report{TotalSec: 1.25, Phases: []PhaseStat{
		{Name: "render", MeanSec: 0.45},
		{Name: "io", MeanSec: 0.52},     // +4%: under threshold
		{Name: "new-phase", MeanSec: 9}, // only in new: not compared
	}}
	deltas := Compare(old, cur, 0.10)
	var names []string
	got := map[string]bool{}
	for _, d := range deltas {
		names = append(names, d.Metric)
		got[d.Metric] = d.Regression
		if d.Class != "timing" || d.Unit != "s" {
			t.Errorf("delta %q class/unit = %q/%q", d.Metric, d.Class, d.Unit)
		}
	}
	// The total first, then the phases sorted by name.
	if want := []string{"total_sec", "phase io mean_sec", "phase render mean_sec"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("compared %q, want %q", names, want)
	}
	if !got["total_sec"] {
		t.Error("total_sec +25% not flagged")
	}
	if got["phase io mean_sec"] {
		t.Error("io +4% flagged at 10% threshold")
	}
	if !got["phase render mean_sec"] {
		t.Error("render +50% not flagged")
	}
}

func TestCompareReportsNoiseGuard(t *testing.T) {
	// Sub-microsecond baselines are noise, never regressions.
	old := &Report{TotalSec: 5e-7}
	cur := &Report{TotalSec: 5e-6}
	if d := Compare(old, cur, 0.10); d[0].Regression {
		t.Error("sub-microsecond baseline flagged")
	}
	// Improvement is never a regression.
	old, cur = &Report{TotalSec: 1.0}, &Report{TotalSec: 0.5}
	d := Compare(old, cur, 0.10)
	if d[0].Regression {
		t.Error("speedup flagged as regression")
	}
	if d[0].Change() != -0.5 {
		t.Errorf("Change = %v, want -0.5", d[0].Change())
	}
	if (Delta{Old: 0, New: 1}).Change() != 0 {
		t.Error("Change with zero old should be 0")
	}
	// A run without a frame time (a scorecard, a load test) has no
	// total to compare.
	if d := Compare(&Report{}, &Report{}, 0.10); len(d) != 0 {
		t.Errorf("two empty reports compared %+v", d)
	}
}

func TestAddCritPathNil(t *testing.T) {
	r := NewReport("x")
	r.AddCritPath(nil)
	r.AddCritPath(&critpath.Analysis{})
	if r.CritPath != nil || r.Imbalance != nil {
		t.Errorf("nil/empty analysis filled sections: %+v %+v", r.CritPath, r.Imbalance)
	}
}

// Counters shared by both reports are compared sorted by name; growth
// beyond the threshold is a regression, counters present on one side
// only are skipped.
func TestCompareCounters(t *testing.T) {
	old := &Report{Counters: map[string]int64{"messages": 100, "bytes_sent": 1000, "gone": 5}}
	cur := &Report{Counters: map[string]int64{"messages": 150, "bytes_sent": 1010, "fresh": 7}}
	deltas := Compare(old, cur, 0.10)
	if len(deltas) != 2 {
		t.Fatalf("%d deltas, want 2: %+v", len(deltas), deltas)
	}
	if deltas[0].Metric != "counter bytes_sent" || deltas[1].Metric != "counter messages" {
		t.Errorf("order: %q, %q", deltas[0].Metric, deltas[1].Metric)
	}
	if deltas[0].Regression {
		t.Error("bytes_sent +1% flagged at 10% threshold")
	}
	if !deltas[1].Regression {
		t.Error("messages +50% not flagged")
	}
	for _, d := range deltas {
		if d.Class != "counters" || d.Unit != "count" {
			t.Errorf("delta %q class/unit = %q/%q", d.Metric, d.Class, d.Unit)
		}
	}
}

// Per-phase imbalance ratios shared by both reports are compared, plus
// the critical-path duration when both sides carry one.
func TestCompareImbalance(t *testing.T) {
	old := &Report{
		Imbalance: []ImbalanceStat{{Phase: "render", Imbalance: 1.1}, {Phase: "composite", Imbalance: 1.2}},
		CritPath:  &CritPathStat{PathSec: 1.0},
	}
	cur := &Report{
		Imbalance: []ImbalanceStat{{Phase: "render", Imbalance: 1.5}, {Phase: "composite", Imbalance: 1.2}},
		CritPath:  &CritPathStat{PathSec: 1.05},
	}
	deltas := Compare(old, cur, 0.10)
	if len(deltas) != 3 {
		t.Fatalf("%d deltas, want 3: %+v", len(deltas), deltas)
	}
	got := map[string]bool{}
	for _, d := range deltas {
		got[d.Metric] = d.Regression
	}
	if got["imbalance composite max/mean"] {
		t.Error("flat composite imbalance flagged")
	}
	if !got["imbalance render max/mean"] {
		t.Error("render imbalance +36% not flagged")
	}
	if got["critpath path_sec"] {
		t.Error("path +5% flagged at 10% threshold")
	}
	if deltas[0].Class != "imbalance" || deltas[0].Unit != "ratio" {
		t.Errorf("class/unit = %q/%q", deltas[0].Class, deltas[0].Unit)
	}

	// Without a critpath section on one side, only the phases compare.
	cur.CritPath = nil
	if d := Compare(old, cur, 0.10); len(d) != 2 {
		t.Errorf("%d deltas without critpath, want 2", len(d))
	}
}

func TestCompareFidelity(t *testing.T) {
	e := func(v float64) *float64 { return &v }
	old := &Report{Fidelity: &FidelityStat{Score: 0.95, Claims: []ClaimStat{
		{ID: "fig3/best-total", Status: "pass", RelErr: e(0.05)},
		{ID: "fig4/fall-from-peak", Status: "pass"},
		{ID: "fig7/raw-plateau", Status: "warn", RelErr: e(0.4)},
	}}}
	cur := &Report{Fidelity: &FidelityStat{Score: 0.80, Claims: []ClaimStat{
		{ID: "fig3/best-total", Status: "fail", RelErr: e(0.6)},  // worsened
		{ID: "fig4/fall-from-peak", Status: "pass"},              // unchanged
		{ID: "fig7/raw-plateau", Status: "pass", RelErr: e(0.1)}, // improved
	}}}
	deltas := Compare(old, cur, 0.05)
	if len(deltas) != 3 {
		t.Fatalf("%d deltas, want 3 (score + 2 status changes): %+v", len(deltas), deltas)
	}
	if deltas[0].Metric != "fidelity score" || !deltas[0].Regression {
		t.Errorf("score drop 0.95 -> 0.80 not flagged: %+v", deltas[0])
	}
	byMetric := map[string]Delta{}
	for _, d := range deltas {
		byMetric[d.Metric] = d
	}
	if _, ok := byMetric["fidelity claim fig4/fall-from-peak"]; ok {
		t.Error("unchanged claim emitted a delta")
	}
	worse := byMetric["fidelity claim fig3/best-total"]
	if !worse.Regression || worse.Unit != "status" {
		t.Errorf("pass -> fail not a regression: %+v", worse)
	}
	better := byMetric["fidelity claim fig7/raw-plateau"]
	if better.Regression {
		t.Errorf("warn -> pass flagged as regression: %+v", better)
	}

	// A small score wobble under the threshold is not a regression.
	cur2 := &Report{Fidelity: &FidelityStat{Score: 0.93}}
	deltas = Compare(old, cur2, 0.05)
	if len(deltas) != 1 || deltas[0].Regression {
		t.Errorf("2%% score wobble at 5%% threshold flagged: %+v", deltas)
	}

	// Reports without fidelity sections compare to nothing.
	if d := Compare(old, &Report{}, 0.05); d != nil {
		t.Errorf("missing new-side fidelity produced deltas: %+v", d)
	}
	if d := Compare(&Report{}, cur, 0.05); d != nil {
		t.Errorf("missing old-side fidelity produced deltas: %+v", d)
	}
}

func TestCompareFlowsim(t *testing.T) {
	old := &Report{Flowsim: &FlowsimStat{ApproxEps: 0.08, ObservedErr: 0.01, ApproxSec: 1.0}}
	cur := &Report{Flowsim: &FlowsimStat{ApproxEps: 0.08, ObservedErr: 0.05, ApproxSec: 1.02}}
	deltas := Compare(old, cur, 0.10)
	if len(deltas) != 2 {
		t.Fatalf("%d deltas, want 2 (err + approx_sec): %+v", len(deltas), deltas)
	}
	if !deltas[0].Regression {
		t.Errorf("observed_err 0.01 -> 0.05 not flagged: %+v", deltas[0])
	}
	if deltas[0].Class != "flowsim" || deltas[0].Unit != "ratio" {
		t.Errorf("class/unit = %q/%q", deltas[0].Class, deltas[0].Unit)
	}
	if deltas[1].Regression {
		t.Errorf("approx_sec +2%% flagged at 10%% threshold: %+v", deltas[1])
	}

	// Breaking the run's own eps bound is a regression even against a
	// worse baseline.
	old2 := &Report{Flowsim: &FlowsimStat{ApproxEps: 0.08, ObservedErr: 0.10}}
	cur2 := &Report{Flowsim: &FlowsimStat{ApproxEps: 0.08, ObservedErr: 0.09}}
	if d := Compare(old2, cur2, 0.10); !d[0].Regression {
		t.Errorf("err 0.09 > eps 0.08 not flagged: %+v", d[0])
	}

	// A changed eps shows up as an unflagged config-drift line.
	cur3 := &Report{Flowsim: &FlowsimStat{ApproxEps: 0.25, ObservedErr: 0.01}}
	d := Compare(old, cur3, 0.10)
	found := false
	for _, dd := range d {
		if dd.Metric == "flowsim approx_eps" {
			found = true
			if dd.Regression {
				t.Errorf("eps change flagged as regression: %+v", dd)
			}
		}
	}
	if !found {
		t.Errorf("eps change produced no delta: %+v", d)
	}

	// Reports without flowsim sections compare to nothing.
	if d := Compare(old, &Report{}, 0.10); d != nil {
		t.Errorf("missing flowsim section produced deltas: %+v", d)
	}
}

// TestCompareService pins the service-section gate: p99 rising and RPS
// falling beyond the threshold are regressions, error rate needs both
// the absolute floor and the relative rise, points are matched by
// concurrency, and reports without a service section compare to nil.
func TestCompareService(t *testing.T) {
	old := &Report{Service: &ServiceStat{Mode: "sweep", Points: []ServicePoint{
		{Concurrency: 4, Requests: 100, OK: 100, RPS: 50, P99Ms: 100},
		{Concurrency: 8, Requests: 100, OK: 100, RPS: 80, P99Ms: 150},
	}}}
	nw := &Report{Service: &ServiceStat{Mode: "sweep", Points: []ServicePoint{
		{Concurrency: 4, Requests: 100, OK: 80, Rejected: 20, RPS: 30, P99Ms: 150},
		{Concurrency: 16, Requests: 100, OK: 100, RPS: 90, P99Ms: 100},
	}}}
	deltas := Compare(old, nw, 0.10)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3 (only c=4 matches):\n%+v", len(deltas), deltas)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		if d.Class != "service" {
			t.Errorf("delta %s class %q, want service", d.Metric, d.Class)
		}
		byName[d.Metric] = d
	}
	if d := byName["service c=4 p99_sec"]; !d.Regression || d.Unit != "s" || d.Old != 0.1 || d.New != 0.15 {
		t.Errorf("p99 delta = %+v, want regression 0.1->0.15 s", d)
	}
	if d := byName["service c=4 rps"]; !d.Regression {
		t.Errorf("rps drop 50->30 not flagged: %+v", d)
	}
	if d := byName["service c=4 error_rate"]; !d.Regression {
		t.Errorf("error rate 0->0.2 not flagged: %+v", d)
	}

	// Improvements and tiny error-rate wiggle below the floor pass.
	better := &Report{Service: &ServiceStat{Mode: "sweep", Points: []ServicePoint{
		{Concurrency: 4, Requests: 10000, OK: 9999, Errors: 1, RPS: 60, P99Ms: 90},
	}}}
	for _, d := range Compare(old, better, 0.10) {
		if d.Regression {
			t.Errorf("improvement flagged as regression: %+v", d)
		}
	}

	if got := Compare(&Report{}, nw, 0.10); got != nil {
		t.Errorf("missing old service section compared non-nil: %+v", got)
	}
	if got := Compare(old, &Report{}, 0.10); got != nil {
		t.Errorf("missing new service section compared non-nil: %+v", got)
	}
}

// TestServiceStatRoundTrip pins the service section's JSON shape and
// ErrorRate arithmetic.
func TestServiceStatRoundTrip(t *testing.T) {
	p := ServicePoint{Concurrency: 8, Requests: 200, OK: 190, Rejected: 6,
		Deadline: 3, Errors: 1, DurationSec: 2, RPS: 100,
		P50Ms: 10, P90Ms: 20, P99Ms: 40, MeanMs: 12, CacheHits: 150, CacheMisses: 50}
	if got, want := p.ErrorRate(), 10.0/200; got != want {
		t.Errorf("ErrorRate = %v, want %v", got, want)
	}
	if (ServicePoint{}).ErrorRate() != 0 {
		t.Error("empty point ErrorRate != 0")
	}
	r := &Report{Schema: ReportSchema, Service: &ServiceStat{
		Mode: "sweep", Target: "in-process", Points: []ServicePoint{p}}}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ok_2xx":190`, `"rejected_429":6`, `"deadline_503":3`,
		`"p99_ms":40`, `"cache_hits":150`, `"mode":"sweep"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("service JSON missing %s:\n%s", want, b)
		}
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Service == nil || len(back.Service.Points) != 1 || !reflect.DeepEqual(back.Service.Points[0], p) {
		t.Errorf("round trip mismatch: %+v", back.Service)
	}
}
