package flowsim

import (
	"math"
	"testing"

	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

func telemetryWorkload(n, count int) (torus.Topology, []torus.Message) {
	top := torus.NewTopology(n)
	var msgs []torus.Message
	for i := 0; i < count; i++ {
		msgs = append(msgs, torus.Message{
			Src:   (i * 37) % n,
			Dst:   (i * 11) % n,
			Bytes: int64(32<<10 + (i%13)*4096),
		})
	}
	return top, msgs
}

// Per-link byte accounting must conserve traffic: every routed byte
// crosses every link of its dimension-ordered route, so the per-link
// totals sum to sum(bytes * hops) over the routed messages.
func TestSimulateTelemetryBytesTimesHops(t *testing.T) {
	top, msgs := telemetryWorkload(128, 500)
	p := params()
	u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	res := SimulateTimed(top, p, msgs, u, nil)
	var want, flows int64
	for _, m := range msgs {
		if m.Src == m.Dst || m.Bytes == 0 {
			continue
		}
		h := int64(top.Hops(m.Src, m.Dst))
		want += m.Bytes * h
		flows += h
	}
	if got := u.TotalBytes(); got != want {
		t.Errorf("link bytes total %d, want sum(bytes*hops) = %d", got, want)
	}
	var gotFlows int64
	for _, f := range u.Flows {
		gotFlows += int64(f)
	}
	if gotFlows != flows {
		t.Errorf("link flows total %d, want sum(hops) = %d", gotFlows, flows)
	}
	if u.Capacity != p.LinkBandwidth {
		t.Errorf("capacity %v, want %v", u.Capacity, p.LinkBandwidth)
	}
	if u.Duration != res.Time {
		t.Errorf("duration %v, want phase time %v", u.Duration, res.Time)
	}
	// Contended workload: max-min must have selected bottlenecks, and
	// the busiest link was occupied for a positive fraction of the phase.
	if u.TotalBottlenecks() == 0 {
		t.Error("no bottleneck events on a contended workload")
	}
	_, l := u.MaxBytes()
	if l < 0 || u.BusySeconds[l] <= 0 || u.BusySeconds[l] > res.Time*(1+1e-9) {
		t.Errorf("busiest link busy %v of phase %v", u.BusySeconds[l], res.Time)
	}
}

// Enabling telemetry must not perturb the simulation: the modeled
// times are bit-identical with and without a recorder.
func TestSimulateTelemetryBitIdentical(t *testing.T) {
	top, msgs := telemetryWorkload(128, 500)
	p := params()
	plain := Simulate(top, p, msgs)
	u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	rec := SimulateTimed(top, p, msgs, u, nil)
	if plain != rec {
		t.Errorf("telemetry perturbed the simulation: %+v != %+v", rec, plain)
	}
}

// With telemetry disabled, Simulate allocates exactly what the
// telemetry-enabled path allocates minus the recorder's own state: the
// nil path must not pay for the feature. Nor may a serial call pay for
// the gang: SimulateOpt at one worker allocates what Simulate does.
func TestSimulateAllocsTelemetryOff(t *testing.T) {
	top, msgs := telemetryWorkload(64, 200)
	p := params()
	// Fewest of many single runs: the phase heartbeat formats through
	// fmt's sync.Pool, which the race detector empties at random, so
	// under -race any one run can carry stray allocations.
	allocs := func(f func()) float64 {
		fewest := math.Inf(1)
		for i := 0; i < 16; i++ {
			fewest = min(fewest, testing.AllocsPerRun(1, f))
		}
		return fewest
	}
	plain := allocs(func() { Simulate(top, p, msgs) })
	nilTel := allocs(func() { SimulateTimed(top, p, msgs, nil, nil) })
	if plain != nilTel {
		t.Errorf("nil-telemetry path allocates differently: %v vs %v", nilTel, plain)
	}
	oneWorker := allocs(func() { SimulateOpt(top, p, msgs, Options{Workers: 1}) })
	if plain != oneWorker {
		t.Errorf("SimulateOpt at one worker allocates differently: %v vs %v", oneWorker, plain)
	}
	// The max-min state (avail/unfrozen) is hoisted out of the
	// completion loop and reset in place, so allocations come only from
	// setup (route and per-link flow lists). Re-allocating inside the
	// loop would add ~2 allocations per completion (+400 here) and trip
	// this bound.
	if plain > 1500 {
		t.Errorf("Simulate allocates %v per run; per-event state not hoisted?", plain)
	}
}

func BenchmarkSimulate(b *testing.B) {
	top, msgs := telemetryWorkload(512, 2048)
	p := params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(top, p, msgs)
	}
}

func BenchmarkSimulateTelemetry(b *testing.B) {
	top, msgs := telemetryWorkload(512, 2048)
	p := params()
	u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateTimed(top, p, msgs, u, nil)
	}
}
