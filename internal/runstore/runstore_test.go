package runstore

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpvr/internal/telemetry"
)

func testReport(total float64) *telemetry.Report {
	r := telemetry.NewReport("test")
	r.Config = map[string]string{"mode": "model", "procs": "1024"}
	r.TotalSec = total
	return r
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "runs.jsonl")
	for i, total := range []float64{1.0, 1.5, 2.0} {
		rec := NewRecord(testReport(total), "abc123", "2026-08-06T00:00:0"+string(rune('0'+i))+"Z")
		if err := Append(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	for i, want := range []float64{1.0, 1.5, 2.0} {
		if recs[i].Report.TotalSec != want {
			t.Errorf("record %d total = %v, want %v (order not oldest-first?)", i, recs[i].Report.TotalSec, want)
		}
		if recs[i].GitRev != "abc123" || recs[i].ID == "" {
			t.Errorf("record %d metadata incomplete: %+v", i, recs[i])
		}
	}
}

func TestReadDropsTruncatedTrailingRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := Append(path, NewRecord(testReport(1), "aaa", "2026-08-06T00:00:00Z")); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, NewRecord(testReport(2), "bbb", "2026-08-06T00:00:01Z")); err != nil {
		t.Fatal(err)
	}
	// Simulate an interrupted append: chop the last line mid-JSON.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatalf("truncated tail should be dropped silently, got error: %v", err)
	}
	if len(recs) != 1 || recs[0].Report.TotalSec != 1 {
		t.Fatalf("read %d records after truncation, want the 1 intact one", len(recs))
	}
}

func TestReadDropsGarbageTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := Append(path, NewRecord(testReport(1), "aaa", "2026-08-06T00:00:00Z")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"id\":\"x\"}\n"); err != nil { // decodes but has no report
		t.Fatal(err)
	}
	f.Close()
	recs, err := Read(path)
	if err != nil {
		t.Fatalf("report-less tail should be dropped silently, got error: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("read %d records, want 1", len(recs))
	}
}

func TestReadErrorsOnMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := Append(path, NewRecord(testReport(1), "aaa", "2026-08-06T00:00:00Z")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := Append(path, NewRecord(testReport(3), "ccc", "2026-08-06T00:00:02Z")); err != nil {
		t.Fatal(err)
	}
	_, err = Read(path)
	if err == nil {
		t.Fatal("mid-file corruption should be an error, got nil")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name line 2", err)
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := Append(path, NewRecord(testReport(1), "aaa", "2026-08-06T00:00:00Z")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := Append(path, NewRecord(testReport(2), "bbb", "2026-08-06T00:00:01Z")); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records around blank lines, want 2", len(recs))
	}
}

func TestConfigDigestDeterministic(t *testing.T) {
	a := ConfigDigest(map[string]string{"mode": "model", "procs": "1024"})
	b := ConfigDigest(map[string]string{"procs": "1024", "mode": "model"})
	if a != b {
		t.Errorf("digest depends on map order: %s vs %s", a, b)
	}
	if len(a) != 12 {
		t.Errorf("digest %q is not 12 hex chars", a)
	}
	c := ConfigDigest(map[string]string{"mode": "model", "procs": "2048"})
	if a == c {
		t.Errorf("different configs share digest %s", a)
	}
}

func TestNewRecordIDDeterministic(t *testing.T) {
	r1 := NewRecord(testReport(1), "abc", "2026-08-06T00:00:00Z")
	r2 := NewRecord(testReport(2), "abc", "2026-08-06T00:00:00Z") // same config, same time
	if r1.ID != r2.ID {
		t.Errorf("IDs differ for identical (time, rev, config): %s vs %s", r1.ID, r2.ID)
	}
	r3 := NewRecord(testReport(1), "abc", "2026-08-06T00:00:01Z")
	if r1.ID == r3.ID {
		t.Errorf("IDs collide across timestamps: %s", r1.ID)
	}
}

func TestMetricsSeries(t *testing.T) {
	mk := func(total, score float64) Record {
		r := testReport(total)
		if !math.IsNaN(score) {
			r.Fidelity = &telemetry.FidelityStat{Score: score}
		}
		return NewRecord(r, "abc", "2026-08-06T00:00:00Z")
	}
	recs := []Record{mk(1.0, 0.9), mk(1.1, math.NaN()), mk(1.2, 0.95)}
	series := Metrics(recs)
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	total, ok := byName["total_sec"]
	if !ok {
		t.Fatal("no total_sec series")
	}
	if total.Valid() != 3 || total.Last() != 1.2 {
		t.Errorf("total_sec valid=%d last=%v, want 3/1.2", total.Valid(), total.Last())
	}
	fid, ok := byName["fidelity score"]
	if !ok {
		t.Fatal("no fidelity score series")
	}
	if fid.Valid() != 2 {
		t.Errorf("fidelity valid=%d, want 2 (middle run has no scorecard)", fid.Valid())
	}
	if !math.IsNaN(fid.Values[1]) {
		t.Errorf("run without fidelity should be NaN-aligned, got %v", fid.Values[1])
	}
	if fid.Last() != 0.95 {
		t.Errorf("fidelity last = %v, want 0.95", fid.Last())
	}
}

func TestDetectChange(t *testing.T) {
	if cp := DetectChange([]float64{1, 1, 1.01, 1, 1}, 2, 0.10); cp != nil {
		t.Errorf("flat series flagged: %+v", cp)
	}
	cp := DetectChange([]float64{1, 1, 1, 1.5, 1.5, 1.5}, 2, 0.10)
	if cp == nil {
		t.Fatal("50% step not detected")
	}
	if cp.Index != 3 {
		t.Errorf("step located at index %d, want 3", cp.Index)
	}
	if cp.Shift < 0.45 || cp.Shift > 0.55 {
		t.Errorf("shift = %v, want ~0.5", cp.Shift)
	}
	// NaN holes must not break segment means.
	cp = DetectChange([]float64{1, math.NaN(), 1, 2, math.NaN(), 2}, 2, 0.10)
	if cp == nil {
		t.Error("step through NaN holes not detected")
	}
	// Too few usable points on a side -> nil.
	if cp := DetectChange([]float64{1, 2}, 2, 0.10); cp != nil {
		t.Errorf("2-point series cannot satisfy minseg 2, got %+v", cp)
	}
}

// fullReport fills every section a report can carry.
func fullReport() *telemetry.Report {
	r := testReport(1.0)
	r.Phases = []telemetry.PhaseStat{{Name: "io", MeanSec: 0.5}}
	r.Counters = map[string]int64{"messages": 100}
	r.Imbalance = []telemetry.ImbalanceStat{{Phase: "render", Imbalance: 1.1}}
	r.CritPath = &telemetry.CritPathStat{PathSec: 1.0}
	r.Fidelity = &telemetry.FidelityStat{Score: 0.9, Claims: []telemetry.ClaimStat{{ID: "fig3/best-total", Status: "pass"}}}
	r.Flowsim = &telemetry.FlowsimStat{ApproxEps: 0.08, ObservedErr: 0.01, ApproxSec: 1, WallSec: 2}
	r.Service = &telemetry.ServiceStat{Points: []telemetry.ServicePoint{{Concurrency: 4, Requests: 100, OK: 100, RPS: 50, P99Ms: 100}}}
	return r
}

// TestWorse pins which direction degrades, per metric as trended:
// times, counts, ratios and error rates upward; the fidelity score and
// throughput downward.
func TestWorse(t *testing.T) {
	down := map[string]bool{"fidelity score": true, "service c=4 rps": true}
	series := Metrics([]Record{NewRecord(fullReport(), "abc", "2026-08-06T00:00:00Z")})
	if len(series) < 14 {
		t.Fatalf("full report trended as %d series", len(series))
	}
	for _, s := range series {
		if got := s.Gate.Worse(-0.2); got != down[s.Name] {
			t.Errorf("%s: a 20%% fall is worse = %v, want %v", s.Name, got, down[s.Name])
		}
		if got := s.Gate.Worse(0.2); got == down[s.Name] {
			t.Errorf("%s: a 20%% rise is worse = %v, want %v", s.Name, got, !down[s.Name])
		}
	}
}

// TestTrendCoversCompare pins the one-list contract from both ends:
// every name perfdiff can print for a report with every section filled
// (each metric moved, a claim flipped, eps changed, so nothing is
// withheld as unchanged) is a series perfhistory trends, the exception
// being claim statuses — ranks, which have flips but no trend — and the
// trend adds only host wall-clock time, which perfdiff never gates on.
func TestTrendCoversCompare(t *testing.T) {
	old, cur := fullReport(), fullReport()
	cur.TotalSec, cur.Phases[0].MeanSec, cur.Counters["messages"] = 2, 1, 200
	cur.Imbalance[0].Imbalance, cur.CritPath.PathSec = 2, 2
	cur.Fidelity.Score, cur.Fidelity.Claims[0].Status = 0.5, "fail"
	cur.Flowsim.ApproxEps, cur.Flowsim.ObservedErr, cur.Flowsim.ApproxSec = 0.25, 0.2, 2
	cur.Service.Points[0].P99Ms, cur.Service.Points[0].RPS, cur.Service.Points[0].OK = 200, 25, 50

	trended := map[string]telemetry.Gate{}
	for _, s := range Metrics([]Record{NewRecord(cur, "abc", "2026-08-06T00:00:00Z")}) {
		trended[s.Name] = s.Gate
	}
	deltas := telemetry.Compare(old, cur, 0.10)
	if len(deltas) != len(cur.Metrics())-1 {
		t.Errorf("compared %d of %d metrics, want all but wall_sec", len(deltas), len(cur.Metrics()))
	}
	for _, d := range deltas {
		if !d.Regression && d.Metric != "flowsim approx_eps" {
			t.Errorf("%s got worse and was not flagged: %+v", d.Metric, d)
		}
		gate, ok := trended[d.Metric]
		if !ok {
			t.Errorf("perfdiff prints %q, perfhistory has no such series", d.Metric)
		}
		if (gate == telemetry.GateStatus) != (d.Unit == "status") {
			t.Errorf("%s: gate %v with unit %q", d.Metric, gate, d.Unit)
		}
		delete(trended, d.Metric)
	}
	if len(trended) != 1 || trended["flowsim wall_sec"] != telemetry.GateWall {
		t.Errorf("trended but never compared: %v, want only flowsim wall_sec", trended)
	}
}
