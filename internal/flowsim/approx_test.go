package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

// approxRefConfigs are the seeded reference configs the clustered
// contention approximation is validated on: the exact kernel is the
// executable spec, and every (config, eps) pair must land within the
// requested bound. These are the configs SideForEps's bands were
// calibrated against; loosening the mapping must keep this suite
// green.
func approxRefConfigs() []struct {
	nodes, n int
	seed     int64
} {
	return []struct {
		nodes, n int
		seed     int64
	}{
		{64, 160, 5}, {64, 160, 36}, {64, 160, 67},
		{512, 1280, 5}, {512, 1280, 36}, {512, 1280, 67},
		{1024, 2560, 5}, {1024, 2560, 36},
	}
}

// TestApproxErrorWithinEps is the bounded-error property test: for
// every seeded reference config and every calibrated eps band, the
// approximate phase time is within eps of the exact kernel's.
func TestApproxErrorWithinEps(t *testing.T) {
	p := params()
	for _, cfg := range approxRefConfigs() {
		top := torus.NewTopology(cfg.nodes)
		rng := rand.New(rand.NewSource(cfg.seed))
		msgs := randomMsgs(rng, top.Nodes(), cfg.n)
		exact := SimulateTimed(top, p, msgs, nil, nil)
		for _, eps := range []float64{0.02, 0.08, 0.25} {
			t.Run(fmt.Sprintf("nodes%d/seed%d/eps%g", cfg.nodes, cfg.seed, eps), func(t *testing.T) {
				res, info := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
				if info == nil {
					t.Fatal("approx mode returned no ApproxInfo")
				}
				err := math.Abs(res.Time-exact.Time) / exact.Time
				if err > eps {
					t.Errorf("observed error %.4f exceeds eps %g (side %d, exact %.6g, approx %.6g)",
						err, eps, info.Side, exact.Time, res.Time)
				}
				// The self-measured band must also bound the truth:
				// the exact time can never undershoot the certifiable
				// floor the band is measured from.
				if exact.Time < info.LowerBound*(1-1e-9) {
					t.Errorf("exact time %.6g below certified lower bound %.6g", exact.Time, info.LowerBound)
				}
				if info.BoundGap < 0 || info.BoundGap >= 1 {
					t.Errorf("BoundGap %v out of range", info.BoundGap)
				}
			})
		}
	}
}

// TestApproxEndpointAggWithinEps walks the same configs and eps bands
// and pins where endpoint aggregation engages: exactly when
// SideForEps's side yields at least approxMinRegions regions. Engaged,
// it reports that side and a measured link population, lands within
// eps, and never undershoots its certified lower bound; below the floor
// it is the exact kernel, bit for bit.
func TestApproxEndpointAggWithinEps(t *testing.T) {
	p := params()
	for _, cfg := range approxRefConfigs() {
		top := torus.NewTopology(cfg.nodes)
		rng := rand.New(rand.NewSource(cfg.seed))
		msgs := randomMsgs(rng, top.Nodes(), cfg.n)
		exact := SimulateTimed(top, p, msgs, nil, nil)
		for _, eps := range []float64{0.02, 0.08, 0.25} {
			t.Run(fmt.Sprintf("nodes%d/seed%d/eps%g", cfg.nodes, cfg.seed, eps), func(t *testing.T) {
				side := torus.SideForEps(eps)
				engages := side > 1 && torus.NewRegions(top, side).NumRegions() >= approxMinRegions
				res, info := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
				if info == nil {
					t.Fatal("approx mode returned no ApproxInfo")
				}
				if !engages {
					if info.Side != 1 || res != exact {
						t.Errorf("below the floor (side %d): Result %+v info %+v, want exact %+v", side, res, info, exact)
					}
					return
				}
				if info.Side != side || info.Regions < approxMinRegions || info.UsedLinks <= 0 {
					t.Errorf("aggregation engaged as %+v, want side %d over >= %d regions with measured links",
						info, side, approxMinRegions)
				}
				if err := math.Abs(res.Time-exact.Time) / exact.Time; err > eps {
					t.Errorf("observed error %.4f exceeds eps %g (side %d, exact %.6g, approx %.6g)",
						err, eps, info.Side, exact.Time, res.Time)
				}
				if exact.Time < info.LowerBound*(1-1e-9) {
					t.Errorf("exact time %.6g below certified lower bound %.6g", exact.Time, info.LowerBound)
				}
			})
		}
	}
}

// TestApproxSkewedPattern repeats the bound check on a direct-send-like
// skewed pattern (many senders funneling into few compositor nodes),
// the traffic shape the 32K scale point simulates.
func TestApproxSkewedPattern(t *testing.T) {
	p := params()
	for _, nodes := range []int{512, 1024} {
		top := torus.NewTopology(nodes)
		rng := rand.New(rand.NewSource(99))
		comps := nodes / 16
		var msgs []torus.Message
		for s := 0; s < nodes; s++ {
			for j := 0; j < 3; j++ {
				msgs = append(msgs, torus.Message{
					Src: s, Dst: (rng.Intn(comps) * 16) % nodes, Bytes: 1 + rng.Int63n(1<<20),
				})
			}
		}
		exact := SimulateTimed(top, p, msgs, nil, nil)
		for _, eps := range []float64{0.02, 0.08, 0.25} {
			res, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
			if err := math.Abs(res.Time-exact.Time) / exact.Time; err > eps {
				t.Errorf("nodes=%d eps=%g: observed error %.4f exceeds bound", nodes, eps, err)
			}
		}
	}
}

// TestApproxEndpointAggShrinksModel pins the point of the aggregation:
// on a direct-send-like skewed pattern over a decomposition above the
// floor, it must (a) shrink the flows' constraint sets — strictly fewer
// route entries than the exact kernel's, on at most the exact kernel's
// links plus the regional aggregates — (b) stay within eps of the
// exact kernel, and (c) keep worker-count determinism.
func TestApproxEndpointAggShrinksModel(t *testing.T) {
	p := params()
	const nodes, eps = 512, 0.08
	top := torus.NewTopology(nodes)
	rng := rand.New(rand.NewSource(99))
	comps := nodes / 16
	var msgs []torus.Message
	for s := 0; s < nodes; s++ {
		for j := 0; j < 3; j++ {
			msgs = append(msgs, torus.Message{
				Src: s, Dst: (rng.Intn(comps) * 16) % nodes, Bytes: 1 + rng.Int63n(1<<20),
			})
		}
	}
	exact := SimulateTimed(top, p, msgs, nil, nil)
	res, info := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
	if info.Side == 1 {
		t.Fatalf("aggregation did not engage: %+v", info)
	}
	ex := newSim(top, p, msgs, nil, nil, nil)
	ag := newSim(top, p, msgs, nil, nil, torus.NewRegions(top, info.Side))
	if info.UsedLinks > len(ex.activeLinks)+6*info.Regions {
		t.Errorf("aggregation uses %d model links, more than the exact kernel's %d plus %d aggregates",
			info.UsedLinks, len(ex.activeLinks), 6*info.Regions)
	}
	if len(ag.routes.links) >= len(ex.routes.links) {
		t.Errorf("aggregation kept %d route entries, exact kernel %d — no reduction",
			len(ag.routes.links), len(ex.routes.links))
	}
	if err := math.Abs(res.Time-exact.Time) / exact.Time; err > eps {
		t.Errorf("observed error %.4f exceeds eps %g (exact %.6g, approx %.6g)",
			err, eps, exact.Time, res.Time)
	}
	var ft1 FlowTimes
	want, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: eps, Workers: 1, Times: &ft1})
	forceSharding(t)
	for _, workers := range []int{2, 4} {
		var ftW FlowTimes
		got, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: eps, Workers: workers, Times: &ftW})
		if got != want {
			t.Errorf("workers=%d Result %+v, want %+v", workers, got, want)
		}
		for i := range msgs {
			if ftW.Done[i] != ft1.Done[i] {
				t.Fatalf("workers=%d msg %d done %v, want %v", workers, i, ftW.Done[i], ft1.Done[i])
			}
		}
	}
}

// TestApproxDegradesToExact pins the approximation's floor: a bound
// tighter than the smallest calibrated band, or a torus too small for
// the decomposition to reach approxMinRegions regions, runs the exact
// kernel — Result, completion times and link usage bit-identical to
// SimulateTimed — and reports side 1 with a zero-width error band.
func TestApproxDegradesToExact(t *testing.T) {
	p := params()
	for _, tc := range []struct {
		nodes int
		eps   float64
	}{
		{64, 0.005}, {64, 0.02}, {512, 0.02}, {256, 0.08}, {1024, 0.25},
	} {
		t.Run(fmt.Sprintf("nodes%d/eps%g", tc.nodes, tc.eps), func(t *testing.T) {
			top := torus.NewTopology(tc.nodes)
			rng := rand.New(rand.NewSource(3))
			msgs := randomMsgs(rng, top.Nodes(), 2*tc.nodes)
			var wantT, gotT FlowTimes
			wantU := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
			gotU := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
			want := SimulateTimed(top, p, msgs, wantU, &wantT)
			got, info := SimulateOpt(top, p, msgs, Options{ApproxEps: tc.eps, Usage: gotU, Times: &gotT})
			if got != want {
				t.Errorf("Result %+v, exact %+v", got, want)
			}
			sameTimes(t, &gotT, &wantT)
			sameUsage(t, gotU, wantU)
			if info == nil || info.Side != 1 || info.Regions != top.Nodes() || info.BoundGap != 0 || info.LowerBound != want.Time {
				t.Errorf("degraded ApproxInfo %+v, want side 1, %d regions, zero band", info, top.Nodes())
			}
		})
	}
}

// TestApproxShardedDeterministic checks worker count does not change
// approx results: the sharded and serial forms of the capacity-aware
// kernel must agree bit-for-bit too.
func TestApproxShardedDeterministic(t *testing.T) {
	forceSharding(t)
	top := torus.NewTopology(512)
	p := params()
	rng := rand.New(rand.NewSource(17))
	msgs := randomMsgs(rng, top.Nodes(), 800)
	var ft1 FlowTimes
	want, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: 0.08, Workers: 1, Times: &ft1})
	for _, workers := range []int{2, 4} {
		var ftW FlowTimes
		got, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: 0.08, Workers: workers, Times: &ftW})
		if got != want {
			t.Errorf("workers=%d Result %+v, want %+v", workers, got, want)
		}
		for i := range msgs {
			if ftW.Done[i] != ft1.Done[i] {
				t.Fatalf("workers=%d msg %d done %v, want %v", workers, i, ftW.Done[i], ft1.Done[i])
			}
		}
	}
}
