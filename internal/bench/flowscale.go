package bench

import (
	"fmt"
	"math"
	"time"

	"bgpvr/internal/core"
	"bgpvr/internal/flowsim"
	"bgpvr/internal/machine"
	"bgpvr/internal/obs"
	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
)

// DefaultFlowScaleExactMax is the default largest core count the
// flow-scale sweep cross-checks against the exact kernel: past it the
// exact leg costs minutes and the self-measured bound gap stands in
// for the true error.
const DefaultFlowScaleExactMax = 2048

// FlowScaleConfig parameterizes one contention-kernel scale sweep.
// The zero value of every field but Procs picks the sweep's defaults,
// so FlowScaleConfig{Procs: 32768, Eps: 0.25} is a complete config.
type FlowScaleConfig struct {
	// Procs is the scale point's core count.
	Procs int
	// M is the compositor count; <= 0 applies the paper's improved
	// compositor rule.
	M int
	// Eps > 0 runs the clustered contention approximation with that
	// relative-error bound; 0 runs the exact kernel only.
	Eps float64
	// Workers is the gang width for the sharded kernel sections.
	Workers int
	// EndpointAgg dials on endpoint-hop aggregation: above the
	// engagement floor only each flow's injection and ejection hops
	// stay physical and interior endpoint-region hops pool onto the
	// regional aggregates. Ignored when Eps == 0.
	EndpointAgg bool
	// ExactMax is the largest core count cross-checked against the
	// exact kernel; 0 means DefaultFlowScaleExactMax.
	ExactMax int
	// Validation lists the small core counts re-validated exactly
	// before the scale point; nil means 256 and 512. Counts >= Procs
	// are skipped.
	Validation []int
}

func (cfg FlowScaleConfig) exactMax() int {
	if cfg.ExactMax > 0 {
		return cfg.ExactMax
	}
	return DefaultFlowScaleExactMax
}

func (cfg FlowScaleConfig) validation() []int {
	if cfg.Validation != nil {
		return cfg.Validation
	}
	return []int{256, 512}
}

// FlowScalePoint is one core count of the contention-kernel scale
// sweep: the direct-send compositing exchange streamed through the
// max-min flow kernel, approximately (eps > 0) and — at validation
// scale — exactly.
type FlowScalePoint struct {
	Procs       int
	Compositors int
	Msgs        int
	Bytes       int64
	ApproxSec   float64 // phase time from the leg the sweep reports (approx when eps > 0)
	ExactSec    float64 // exact kernel's phase time; 0 when the exact leg was skipped
	BW          float64 // aggregate bandwidth of the reported leg, the Fig-4 metric
	ObservedErr float64 // |approx-exact|/exact when ErrExact, else the self-measured bound gap
	ErrExact    bool
	Events      int64
	KeptRounds  float64 // share of the reported leg's freeze rounds an event kept from the one before
	WallSec     float64
	Info        *flowsim.ApproxInfo // nil when eps <= 0
}

// flowsimRounds reads the kernel's process-wide freeze-round counters
// (flowsim/obs.go): rounds in all, and those kept rather than redone.
func flowsimRounds() (rounds, kept float64) {
	for _, sm := range obs.Default.Snapshot() {
		switch sm.Name {
		case "bgpvr_flowsim_freeze_rounds_total":
			rounds = sm.Value
		case "bgpvr_flowsim_kept_rounds_total":
			kept = sm.Value
		}
	}
	return rounds, kept
}

// Stat converts the point into the perf report's flowsim section.
func (pt FlowScalePoint) Stat(eps float64, workers int) *telemetry.FlowsimStat {
	st := &telemetry.FlowsimStat{
		ApproxEps:   eps,
		ObservedErr: pt.ObservedErr,
		ErrExact:    pt.ErrExact,
		ExactSec:    pt.ExactSec,
		ApproxSec:   pt.ApproxSec,
		Events:      pt.Events,
		Workers:     workers,
		WallSec:     pt.WallSec,
	}
	if pt.Info != nil {
		st.RegionSide = pt.Info.Side
		st.Regions = pt.Info.Regions
		st.ModelLinks = pt.Info.ModelLinks
		st.PhysLinks = pt.Info.PhysLinks
		st.LowerBoundSec = pt.Info.LowerBound
		st.EndpointAgg = pt.Info.EndpointAgg
		st.UsedLinks = pt.Info.UsedLinks
	}
	return st
}

// FlowScaleAt streams one direct-send compositing exchange through the
// contention kernel at cfg.Procs cores. When cfg.Eps > 0 and the core
// count is within cfg's exact-check ceiling, the exact kernel also
// runs and the true relative error is scored; past the ceiling
// ObservedErr is the approximation's self-measured bound gap, which
// bounds the truth from above. Either way the run is refused with an
// error when the observed error exceeds cfg.Eps — a scale point whose
// own certificate cannot place it inside the requested band is not
// reported.
func FlowScaleAt(mach machine.Machine, scene core.Scene, cfg FlowScaleConfig) (FlowScalePoint, error) {
	procs := cfg.Procs
	top, p, nm := core.CompositePhaseMessages(mach, scene, procs, cfg.M, 0)
	m := cfg.M
	if m <= 0 {
		m = machine.ImprovedCompositors(procs)
	}
	// Intra-node fragments never touch the torus and the kernel routes
	// only cross-node flows, so drop self-messages from the streamed
	// set (and from the bandwidth the table reports).
	keep := nm[:0]
	for _, mm := range nm {
		if mm.Src != mm.Dst {
			keep = append(keep, mm)
		}
	}
	nm = keep
	pt := FlowScalePoint{Procs: procs, Compositors: m, Msgs: len(nm)}
	for _, m := range nm {
		pt.Bytes += m.Bytes
	}
	rounds0, kept0 := flowsimRounds()
	t0 := time.Now()
	res, info := flowsim.SimulateOpt(top, p, nm, flowsim.Options{
		ApproxEps: cfg.Eps, Workers: cfg.Workers, EndpointAgg: cfg.EndpointAgg,
	})
	pt.WallSec = time.Since(t0).Seconds()
	if rounds, kept := flowsimRounds(); rounds > rounds0 {
		pt.KeptRounds = (kept - kept0) / (rounds - rounds0)
	}
	if res.Completions != len(nm) {
		return pt, fmt.Errorf("bench: flowsim completed %d of %d flows at %d cores", res.Completions, len(nm), procs)
	}
	pt.ApproxSec, pt.Events, pt.Info = res.Time, int64(res.Events), info
	if info != nil {
		pt.ObservedErr = info.BoundGap
	}
	if cfg.Eps > 0 && procs <= cfg.exactMax() {
		ex := flowsim.SimulateTimed(top, p, nm, nil, nil)
		pt.ExactSec = ex.Time
		if ex.Time > 0 {
			pt.ObservedErr = math.Abs(res.Time-ex.Time) / ex.Time
			pt.ErrExact = true
		}
	} else if cfg.Eps <= 0 {
		pt.ExactSec = res.Time
	}
	if cfg.Eps > 0 && pt.ObservedErr > cfg.Eps {
		kind := "self-measured bound gap"
		if pt.ErrExact {
			kind = "error vs exact"
		}
		return pt, fmt.Errorf("bench: approx %s %.4f exceeds eps %g at %d cores", kind, pt.ObservedErr, cfg.Eps, procs)
	}
	if pt.ApproxSec > 0 {
		pt.BW = float64(pt.Bytes) / pt.ApproxSec
	}
	return pt, nil
}

// FlowScaleRun is the contention-kernel scale experiment: the
// validation core counts re-check the approximation against the exact
// kernel, then the scale point runs at cfg.Procs — approximately when
// cfg.Eps > 0 (with an exact cross-check only up to cfg's exact-check
// ceiling), exactly otherwise. Every point inherits FlowScaleAt's
// refusal: an observed error (or, past the ceiling, a bound gap) above
// eps aborts the sweep. The table is the wire-level Fig-4 view: the
// direct-send exchange's effective aggregate bandwidth at each scale,
// with the approximation's observed error alongside, and "kept" — the
// share of freeze rounds the event loop reused instead of recomputing.
// The returned points end with the scale point.
func FlowScaleRun(mach machine.Machine, scene core.Scene, cfg FlowScaleConfig) ([]FlowScalePoint, string, error) {
	var counts []int
	for _, p := range cfg.validation() {
		if p < cfg.Procs {
			counts = append(counts, p)
		}
	}
	counts = append(counts, cfg.Procs)
	pts := make([]FlowScalePoint, len(counts))
	fsPhase := obs.GetPhase("flowscale")
	fsPhase.Start(int64(len(counts)))
	defer fsPhase.End()
	for i, p := range counts {
		ptCfg := cfg
		ptCfg.Procs = p
		obs.Note("flowscale point %d/%d: %d cores (exact cross-check %v)",
			i+1, len(counts), p, cfg.Eps > 0 && p <= cfg.exactMax())
		pt, err := FlowScaleAt(mach, scene, ptCfg)
		if err != nil {
			return nil, "", err
		}
		pts[i] = pt
		fsPhase.Add(1)
	}

	t := Table{
		Title: fmt.Sprintf("Flow-level compositing scale (direct-send, %d^2 image, eps=%g, %d workers)",
			scene.ImageW, cfg.Eps, cfg.Workers),
		Columns: []string{"cores", "m", "msgs", "phase", "agg BW", "err", "err kind", "events", "kept", "wall"},
	}
	for _, pt := range pts {
		errKind := "bound gap"
		if pt.ErrExact {
			errKind = "vs exact"
		}
		if pt.Info == nil {
			errKind = "exact"
		}
		t.AddRow(fmt.Sprint(pt.Procs), fmt.Sprint(pt.Compositors), fmt.Sprint(pt.Msgs),
			secs(pt.ApproxSec), stats.Rate(pt.BW), fmt.Sprintf("%.4f", pt.ObservedErr), errKind,
			fmt.Sprint(pt.Events), fmt.Sprintf("%.1f%%", 100*pt.KeptRounds), secs(pt.WallSec))
	}
	return pts, t.String(), nil
}
