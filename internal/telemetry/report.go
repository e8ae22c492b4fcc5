package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bgpvr/internal/critpath"
	"bgpvr/internal/stats"
	"bgpvr/internal/trace"
	"bgpvr/internal/tree"
)

// ReportSchema is the newest perf-report layout this build reads and
// the one it writes. Adding a field or a section is not a bump: a
// reader ignores JSON it does not know and Report.Metrics lists only
// what a report carries, so old and new reports compare on what both
// hold and the checked-in baselines outlive the addition. Bump it only
// when an existing field changes meaning — ReadReport accepts 1 up to
// this number and refuses anything newer, whose fields it could
// misread.
//
// Schema history (every step so far was an addition and, by the rule
// above, would not be a bump today):
//
//	1 — phases, counters, histograms, network, runtime
//	2 — adds the critpath and imbalance sections
//	3 — adds the fidelity section (paper-fidelity scorecard)
//	4 — runtime section gains workers and parallel_speedup
//	5 — adds the flowsim section (approx_eps / observed_err accuracy
//	    telemetry of the clustered contention approximation)
//	6 — adds the service section (render-service load-test results:
//	    per-concurrency latency percentiles, throughput, error and
//	    admission counts)
//	7 — adds the trace section (per-request tail-sampling verdict) and
//	    the service points' slowest-request / failed-request IDs
//	8 — flowsim section gains approx_endpoint (endpoint-hop
//	    aggregation engaged), approx_used_links (distinct model links
//	    the flow set references), and wall_sec (simulation wall time);
//	    approx_endpoint is no longer written, since the aggregation
//	    stopped being optional, and is ignored where a report has it
const ReportSchema = 8

// Report is the machine-readable perf record of one run: the trace
// breakdown, telemetry aggregates, runtime/alloc stats, and the run
// configuration, merged into one versioned document. CI stores these
// as artifacts (the BENCH_*.json trajectory) and cmd/perfdiff compares
// two of them.
type Report struct {
	Schema int    `json:"schema"`
	Label  string `json:"label,omitempty"`
	// Config is the run configuration as flat name/value pairs
	// (mode, procs, format, ...). Maps marshal with sorted keys, so
	// the output is deterministic.
	Config     map[string]string `json:"config,omitempty"`
	TotalSec   float64           `json:"total_sec"`
	Phases     []PhaseStat       `json:"phases,omitempty"`
	Counters   map[string]int64  `json:"counters,omitempty"`
	Histograms []HistogramStat   `json:"histograms,omitempty"`
	Network    *NetworkStat      `json:"network,omitempty"`
	CritPath   *CritPathStat     `json:"critpath,omitempty"`
	Imbalance  []ImbalanceStat   `json:"imbalance,omitempty"`
	Fidelity   *FidelityStat     `json:"fidelity,omitempty"`
	Flowsim    *FlowsimStat      `json:"flowsim,omitempty"`
	Service    *ServiceStat      `json:"service,omitempty"`
	Trace      *TraceStat        `json:"trace,omitempty"`
	Runtime    *RuntimeStat      `json:"runtime,omitempty"`
}

// TraceStat records a request's tail-sampling verdict in its perf
// report: whether the trace was retained in the service's trace store
// and why, so a client holding a slow response knows immediately
// whether /traces/{trace_id} will answer.
type TraceStat struct {
	TraceID string `json:"trace_id"`
	// Spans is the number of recorded span events (before nesting).
	Spans    int  `json:"spans"`
	Retained bool `json:"retained"`
	// Reason is "error", "slo", "p90", or "rand" when retained.
	Reason string `json:"reason,omitempty"`
}

// ServiceStat records a render-service load test: one point per
// concurrency level of a sweep (a soak is a single point), with
// client-observed latency percentiles, throughput, and the admission
// outcomes. cmd/serveload builds it; perfdiff -only service gates p99,
// throughput, and error-rate drift between two of them.
type ServiceStat struct {
	// Mode is "sweep" or "soak".
	Mode string `json:"mode"`
	// Target is the service address, or "in-process" when the harness
	// spun the server inside its own process.
	Target string         `json:"target,omitempty"`
	Points []ServicePoint `json:"points,omitempty"`
}

// ServicePoint is one steady concurrency level's aggregate outcome.
type ServicePoint struct {
	Concurrency int   `json:"concurrency"`
	Requests    int64 `json:"requests"`
	OK          int64 `json:"ok_2xx"`
	Rejected    int64 `json:"rejected_429"`
	Deadline    int64 `json:"deadline_503"`
	// Errors counts every other non-2xx outcome, including transport
	// failures.
	Errors      int64   `json:"errors_other,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	RPS         float64 `json:"rps"`
	// Latency percentiles are estimated from a log-bucketed histogram
	// of client-observed request wall times (obs.Histogram.Quantile),
	// so they carry bucket resolution, not exact order statistics.
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// CacheHits/CacheMisses are the service-side volume-cache deltas
	// across the point, when the harness could read them from /status.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// SlowestMs/SlowestID identify the level's slowest request by the
	// server-assigned X-Request-ID, so it can be looked up in the
	// service's trace store (/traces/{id}) after the run.
	SlowestMs float64 `json:"slowest_ms,omitempty"`
	SlowestID string  `json:"slowest_id,omitempty"`
	// FailIDs are the request IDs of non-2xx outcomes (capped by the
	// harness), for the same post-hoc trace lookup.
	FailIDs []string `json:"fail_ids,omitempty"`
}

// ErrorRate returns the fraction of requests that did not end 2xx.
func (p ServicePoint) ErrorRate() float64 {
	if p.Requests == 0 {
		return 0
	}
	return float64(p.Requests-p.OK) / float64(p.Requests)
}

// FlowsimStat records the contention-kernel configuration of the run
// and, in approximate mode, its accuracy telemetry: the requested
// error bound and the error actually observed. ObservedErr is the true
// relative error when an exact cross-check ran (small configs), else
// the self-measured bound gap — (time - certified lower bound)/time —
// which bounds the true error from above.
type FlowsimStat struct {
	ApproxEps   float64 `json:"approx_eps"`
	ObservedErr float64 `json:"observed_err"`
	// ErrExact marks ObservedErr as a true exact-vs-approx comparison
	// rather than the self-measured bound gap.
	ErrExact      bool    `json:"err_exact,omitempty"`
	RegionSide    int     `json:"region_side,omitempty"`
	Regions       int     `json:"regions,omitempty"`
	ModelLinks    int     `json:"model_links,omitempty"`
	PhysLinks     int     `json:"phys_links,omitempty"`
	LowerBoundSec float64 `json:"lower_bound_sec,omitempty"`
	ExactSec      float64 `json:"exact_sec,omitempty"`
	ApproxSec     float64 `json:"approx_sec,omitempty"`
	Events        int64   `json:"events,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	// UsedLinks is the number of distinct model links the flow set
	// actually referenced — the working-set size the kernel iterates,
	// which the aggregation exists to shrink.
	UsedLinks int `json:"approx_used_links,omitempty"`
	// WallSec is the simulation's wall-clock cost (not simulated
	// time), the quantity the scale sweeps optimize.
	WallSec float64 `json:"wall_sec,omitempty"`
}

// FidelityStat is the paper-fidelity scorecard section: how closely
// the model tracks the paper's published values and qualitative shape
// claims. Package fidelity builds it (Scorecard.Stat); it lives here
// so perf reports can carry it without telemetry importing the bench
// stack.
type FidelityStat struct {
	// Score is the aggregate fidelity in [0, 1]: the mean over claims
	// of 1 (pass), 0.5 (warn), 0 (fail).
	Score  float64     `json:"score"`
	Pass   int         `json:"pass"`
	Warn   int         `json:"warn"`
	Fail   int         `json:"fail"`
	Claims []ClaimStat `json:"claims,omitempty"`
}

// ClaimStat is one evaluated paper claim.
type ClaimStat struct {
	ID     string `json:"id"`     // e.g. "fig3/best-total"
	Figure string `json:"figure"` // fig3..fig7, table2
	Kind   string `json:"kind"`   // point, shape, crossover
	// Paper and Measured are display strings (a point value with its
	// unit, or a predicate description) — the numeric comparison is
	// RelErr.
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	// RelErr is |measured-paper|/|paper| for point claims; nil for
	// shape predicates (which are pass/fail) and when the measured
	// point is missing.
	RelErr *float64 `json:"rel_err,omitempty"`
	Status string   `json:"status"` // pass, warn, fail
	Detail string   `json:"detail,omitempty"`
}

// PhaseStat is one pipeline phase's per-rank time summary.
type PhaseStat struct {
	Name      string  `json:"name"`
	MeanSec   float64 `json:"mean_sec"`
	MaxSec    float64 `json:"max_sec"`
	Imbalance float64 `json:"imbalance,omitempty"`
}

// HistogramStat is one size histogram with only its non-empty buckets.
type HistogramStat struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	SumB    int64        `json:"sum_bytes"`
	Buckets []BucketStat `json:"buckets,omitempty"`
}

// BucketStat is one non-empty log2 bucket.
type BucketStat struct {
	LoB   int64 `json:"lo_bytes"`
	HiB   int64 `json:"hi_bytes"`
	Count int64 `json:"count"`
}

// NetworkStat summarizes a phase's per-link usage.
type NetworkStat struct {
	Links            int     `json:"links"`
	ActiveLinks      int     `json:"active_links"`
	TotalLinkBytes   int64   `json:"total_link_bytes"`
	MaxLinkBytes     int64   `json:"max_link_bytes"`
	MaxLinkFlows     int32   `json:"max_link_flows"`
	PeakUtilization  float64 `json:"peak_utilization"`
	BottleneckEvents int64   `json:"bottleneck_events"`
}

// CritPathStat summarizes the critical-path analysis of the run's
// causal event graph (package critpath).
type CritPathStat struct {
	Ranks    int     `json:"ranks"`
	Deps     int     `json:"deps"`
	PathSec  float64 `json:"path_sec"`
	IdleSec  float64 `json:"idle_sec,omitempty"`
	Hops     int     `json:"hops"`
	Dominant string  `json:"dominant_phase"`
	// PhaseSec attributes the path's duration to phases; maps marshal
	// with sorted keys, so the output is deterministic.
	PhaseSec map[string]float64 `json:"phase_sec,omitempty"`
	WhatIf   []WhatIfStat       `json:"what_if,omitempty"`
}

// WhatIfStat is one balanced-phase estimate.
type WhatIfStat struct {
	Phase        string  `json:"phase"`
	EstimatedSec float64 `json:"estimated_sec"`
	SavedSec     float64 `json:"saved_sec"`
}

// ImbalanceStat is one phase's per-rank busy-time distribution.
type ImbalanceStat struct {
	Phase     string  `json:"phase"`
	MeanSec   float64 `json:"mean_sec"`
	MaxSec    float64 `json:"max_sec"`
	P95Sec    float64 `json:"p95_sec"`
	Imbalance float64 `json:"imbalance"`
	CoV       float64 `json:"cov"`
	Gini      float64 `json:"gini"`
	SlackSec  float64 `json:"slack_sec"`
}

// RuntimeStat captures the Go runtime's view of the run. It is
// intentionally the only non-deterministic section; perfdiff ignores
// it by default.
type RuntimeStat struct {
	GoVersion       string  `json:"go_version"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	WallSec         float64 `json:"wall_sec"`
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	NumGC           uint32  `json:"num_gc"`
	// Workers is the resolved -workers pool width the run used (0 when
	// the run predates the flag or never touched a pool).
	Workers int `json:"workers,omitempty"`
	// ParallelSpeedup is the realized pool speedup: cumulative
	// worker-busy seconds over pool-call elapsed seconds (par.Stats).
	// ~1.0 means the run was effectively serial.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
}

// NewReport starts a report with the schema version and label set.
func NewReport(label string) *Report {
	return &Report{Schema: ReportSchema, Label: label, Config: map[string]string{}}
}

// AddBreakdown fills the phase table and counters from a trace
// breakdown (nil-safe; a nil breakdown changes nothing).
func (r *Report) AddBreakdown(b *trace.Breakdown) {
	if b == nil {
		return
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		s := b.PerRank[p]
		if s.N == 0 {
			continue
		}
		r.Phases = append(r.Phases, PhaseStat{
			Name: p.String(), MeanSec: s.Mean(), MaxSec: s.MaxV, Imbalance: s.Imbalance(),
		})
	}
	for c := trace.Counter(0); c < trace.NumCounters; c++ {
		if v := b.Counters[c]; v != 0 {
			if r.Counters == nil {
				r.Counters = map[string]int64{}
			}
			r.Counters[c.String()] = v
		}
	}
}

// AddNetTelemetry fills the histogram and network sections (nil-safe).
func (r *Report) AddNetTelemetry(n *NetTelemetry) {
	if n == nil {
		return
	}
	for _, h := range []struct {
		name string
		h    *Histogram
	}{
		{"send_sizes", &n.SendSizes},
		{"collective_sizes", &n.CollectiveSizes},
		{"access_sizes", &n.AccessSizes},
	} {
		if h.h.Count() == 0 {
			continue
		}
		hs := HistogramStat{Name: h.name, Count: h.h.Count(), SumB: h.h.Sum()}
		for i := 0; i < histBuckets; i++ {
			if c := h.h.Bucket(i); c > 0 {
				lo, hi := BucketBounds(i)
				hs.Buckets = append(hs.Buckets, BucketStat{LoB: lo, HiB: hi, Count: c})
			}
		}
		r.Histograms = append(r.Histograms, hs)
	}
	if n.Tree.TotalOps() > 0 {
		if r.Counters == nil {
			r.Counters = map[string]int64{}
		}
		for op := tree.Op(0); op < tree.NumOps; op++ {
			if c := n.Tree.Ops[op]; c != 0 {
				r.Counters["tree_"+op.String()] = c
			}
		}
		if n.Tree.Bytes != 0 {
			r.Counters["tree_bytes"] = n.Tree.Bytes
		}
	}
	if u := n.Links; u.Links() > 0 {
		mb, _ := u.MaxBytes()
		mf, _ := u.MaxFlows()
		r.Network = &NetworkStat{
			Links:            u.Links(),
			ActiveLinks:      countActive(u),
			TotalLinkBytes:   u.TotalBytes(),
			MaxLinkBytes:     mb,
			MaxLinkFlows:     mf,
			PeakUtilization:  u.PeakUtilization(),
			BottleneckEvents: u.TotalBottlenecks(),
		}
	}
}

// AddCritPath fills the critpath and imbalance sections from a
// critical-path analysis (nil-safe; a nil analysis changes nothing).
func (r *Report) AddCritPath(a *critpath.Analysis) {
	if a == nil || a.Ranks == 0 {
		return
	}
	cs := &CritPathStat{
		Ranks:    a.Ranks,
		Deps:     a.Deps,
		PathSec:  a.PathSec,
		IdleSec:  a.IdleSec,
		Hops:     a.Hops,
		Dominant: a.Dominant,
	}
	if len(a.PathPhaseSec) > 0 {
		cs.PhaseSec = map[string]float64{}
		for ph, sec := range a.PathPhaseSec {
			cs.PhaseSec[ph] = sec
		}
	}
	for _, w := range a.WhatIf {
		cs.WhatIf = append(cs.WhatIf, WhatIfStat{
			Phase: w.Phase, EstimatedSec: w.EstimatedSec, SavedSec: w.SavedSec,
		})
	}
	r.CritPath = cs
	for _, p := range a.Phases {
		r.Imbalance = append(r.Imbalance, ImbalanceStat{
			Phase: p.Phase, MeanSec: p.MeanSec, MaxSec: p.MaxSec, P95Sec: p.P95Sec,
			Imbalance: p.Imbalance, CoV: p.CoV, Gini: p.Gini, SlackSec: p.SlackSec,
		})
	}
}

// AddRuntime fills the runtime section from the live Go runtime.
func (r *Report) AddRuntime(wallSec float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Runtime = &RuntimeStat{
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		WallSec:         wallSec,
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
	}
}

// WriteJSON writes the report as indented JSON with a trailing
// newline. Struct field order and sorted map keys make the output
// deterministic for golden tests.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path, creating missing parent
// directories.
func (r *Report) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport loads a report from path. Any schema from 1 up to
// ReportSchema reads (see the rule there); a newer one is an error.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("telemetry: parsing report %s: %w", path, err)
	}
	if r.Schema < 1 || r.Schema > ReportSchema {
		return nil, fmt.Errorf("telemetry: report %s has schema %d, this build reads 1..%d", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

// Gate says how a change in a metric is judged: the two thresholded
// directions, then every rule in the tree that is not a threshold.
type Gate uint8

const (
	// GateRise: times, counts and ratios regress when they rise by more
	// than the threshold over a baseline above 1e-6 (a microsecond, one
	// count: below that a ratio is noise).
	GateRise Gate = iota
	// GateFall: scores and throughput regress when they fall by more
	// than the threshold.
	GateFall
	// GateEps is GateRise plus the bounded-error contract: an observed
	// error above the run's own eps regresses whatever the baseline said.
	GateEps
	// GateStatus: a claim's pass/warn/fail rank. Only a flip is worth a
	// line, any worsening regresses, and there is no trend to draw.
	GateStatus
	// GateErrorRate regresses on a rise of more than 0.1 % absolute (one
	// flaky request in thousands does not gate) that, off a non-zero
	// baseline, is also beyond the threshold.
	GateErrorRate
	// GateDrift: a setting the run was given. A change is worth a line
	// and is never a regression on its own.
	GateDrift
	// GateWall: host wall-clock time, trended by perfhistory and never
	// gated pairwise — benchmark -compare does that, with measured noise.
	GateWall
)

// Worse reports whether a relative shift in a metric judged by g is a
// degradation: everything degrades upward but scores and throughput.
func (g Gate) Worse(shift float64) bool {
	if g == GateFall {
		return shift < 0
	}
	return shift > 0
}

// Scalar is one comparable metric of a report. Report.Metrics is the
// only place that says which scalars a report holds, what they are
// called and how a change is judged; cmd/perfdiff joins two such lists
// by name (Compare) and cmd/perfhistory transposes one list per stored
// run (runstore.Metrics).
type Scalar struct {
	Name string
	// Class is what perfdiff -only selects: timing, counters,
	// imbalance, fidelity, flowsim, or service.
	Class string
	// Unit picks the formatter (FormatValue): s, count, ratio, score,
	// rate, or status.
	Unit  string
	Value float64
	Gate  Gate
}

// Metrics lists the report's comparable scalars in the order the tools
// print them. A section the report does not carry contributes nothing,
// so a report of an older schema simply has fewer names to join.
func (r *Report) Metrics() []Scalar {
	var ms []Scalar
	add := func(class, name, unit string, v float64, g Gate) {
		ms = append(ms, Scalar{Name: name, Class: class, Unit: unit, Value: v, Gate: g})
	}
	// A scorecard or a load test has no frame time; 0 is "absent".
	if r.TotalSec > 0 {
		add("timing", "total_sec", "s", r.TotalSec, GateRise)
	}
	phases := append([]PhaseStat(nil), r.Phases...)
	sort.Slice(phases, func(i, j int) bool { return phases[i].Name < phases[j].Name })
	for _, p := range phases {
		add("timing", "phase "+p.Name+" mean_sec", "s", p.MeanSec, GateRise)
	}
	counters := make([]string, 0, len(r.Counters))
	for name := range r.Counters {
		counters = append(counters, name)
	}
	sort.Strings(counters)
	for _, name := range counters {
		add("counters", "counter "+name, "count", float64(r.Counters[name]), GateRise)
	}
	imbalance := append([]ImbalanceStat(nil), r.Imbalance...)
	sort.Slice(imbalance, func(i, j int) bool { return imbalance[i].Phase < imbalance[j].Phase })
	for _, p := range imbalance {
		add("imbalance", "imbalance "+p.Phase+" max/mean", "ratio", p.Imbalance, GateRise)
	}
	if r.CritPath != nil {
		add("imbalance", "critpath path_sec", "s", r.CritPath.PathSec, GateRise)
	}
	if f := r.Fidelity; f != nil {
		add("fidelity", "fidelity score", "score", f.Score, GateFall)
		claims := append([]ClaimStat(nil), f.Claims...)
		sort.Slice(claims, func(i, j int) bool { return claims[i].ID < claims[j].ID })
		for _, c := range claims {
			add("fidelity", "fidelity claim "+c.ID, "status", statusRank(c.Status), GateStatus)
		}
	}
	if f := r.Flowsim; f != nil {
		// 0 is a real observation (exact kernel, or a binding clamp).
		add("flowsim", "flowsim observed_err", "ratio", f.ObservedErr, GateEps)
		add("flowsim", "flowsim approx_eps", "ratio", f.ApproxEps, GateDrift)
		if f.ApproxSec > 0 {
			add("flowsim", "flowsim approx_sec", "s", f.ApproxSec, GateRise)
		}
		if f.WallSec > 0 {
			add("flowsim", "flowsim wall_sec", "s", f.WallSec, GateWall)
		}
	}
	if r.Service != nil {
		for _, p := range r.Service.Points {
			tag := fmt.Sprintf("service c=%d ", p.Concurrency)
			add("service", tag+"p99_sec", "s", p.P99Ms/1e3, GateRise)
			add("service", tag+"rps", "rate", p.RPS, GateFall)
			add("service", tag+"error_rate", "ratio", p.ErrorRate(), GateErrorRate)
		}
	}
	return ms
}

// statusRank orders claim statuses by badness.
func statusRank(s string) float64 {
	switch s {
	case "pass":
		return 0
	case "warn":
		return 1
	}
	return 2
}

// FormatValue renders a metric value in its unit — the one formatter
// behind perfdiff's columns and perfhistory's tables. NaN (a run that
// does not carry the metric) is "-".
func FormatValue(unit string, v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case unit == "s":
		return stats.Seconds(v)
	case unit == "ratio" || unit == "score":
		return fmt.Sprintf("%.3f", v)
	case unit == "status":
		return [...]string{"pass", "warn", "fail"}[int(v)]
	}
	return fmt.Sprintf("%.0f", v)
}

// Delta is one metric both of two compared reports carry.
type Delta struct {
	Metric      string
	Class, Unit string // as in Scalar
	Old, New    float64
	Regression  bool // new is worse than old by its gate's rule
}

// Change returns the relative change (new-old)/old, or 0 when old is 0.
func (d Delta) Change() float64 {
	if d.Old == 0 {
		return 0
	}
	return (d.New - d.Old) / d.Old
}

// Compare joins the two reports' metric lists by name, in the new
// report's order, and flags each metric that got worse by its gate's
// rule; threshold is the relative change (0.10 for 10 %) the
// thresholded gates allow. A metric only one side carries is skipped,
// and so is host wall-clock time.
func Compare(old, new *Report, threshold float64) []Delta {
	was := map[string]float64{}
	for _, m := range old.Metrics() {
		was[m.Name] = m.Value
	}
	var deltas []Delta
	for _, m := range new.Metrics() {
		o, ok := was[m.Name]
		if !ok || m.Gate == GateWall {
			continue
		}
		d := Delta{Metric: m.Name, Class: m.Class, Unit: m.Unit, Old: o, New: m.Value}
		rise := d.New - d.Old
		if m.Gate == GateFall {
			rise = -rise
		}
		switch m.Gate {
		case GateStatus, GateDrift:
			if rise == 0 {
				continue
			}
			d.Regression = m.Gate == GateStatus && rise > 0
		case GateErrorRate:
			d.Regression = rise > 0.001 && (d.Old == 0 || rise/d.Old > threshold)
		default:
			d.Regression = d.Old > 1e-6 && rise/d.Old > threshold
			if m.Gate == GateEps && new.Flowsim.ApproxEps > 0 && d.New > new.Flowsim.ApproxEps {
				d.Regression = true
			}
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// Table renders the scorecard as an aligned text table — the compact
// view the debug endpoint serves at /fidelity?text=1. The full report
// with per-figure sections is fidelity.Scorecard.Text.
func (f *FidelityStat) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "paper-fidelity scorecard: score %.3f (%d pass, %d warn, %d fail of %d claims)\n",
		f.Score, f.Pass, f.Warn, f.Fail, len(f.Claims))
	w := 0
	for _, c := range f.Claims {
		if len(c.ID) > w {
			w = len(c.ID)
		}
	}
	for _, c := range f.Claims {
		relerr := "      -"
		if c.RelErr != nil {
			relerr = fmt.Sprintf("%6.1f%%", 100**c.RelErr)
		}
		fmt.Fprintf(&b, "%-4s %-*s  %s  paper %s, measured %s\n",
			c.Status, w, c.ID, relerr, c.Paper, c.Measured)
	}
	return b.String()
}
