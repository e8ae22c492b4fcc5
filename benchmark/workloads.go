package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"bgpvr/internal/bench"
	"bgpvr/internal/core"
	"bgpvr/internal/fidelity"
	"bgpvr/internal/flowsim"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/obs"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/render"
	"bgpvr/internal/serve"
	"bgpvr/internal/torus"
	"bgpvr/internal/volume"
)

// sizes holds every shape the workloads and the layer table use, so
// the smoke test can run the whole harness on tiny inputs.
type sizes struct {
	renderN, renderImg     int // frame-render: ray casting dominates
	ioN, ioImg             int // frame-io: the collective read dominates
	compN, compImg         int // frame-composite: volume edge = sampling step
	compProcs, compM       int // frame-composite: renderers, compositors
	serveN, serveImg       int // serve-*: request scene
	serveProcs, serveCache int // serve-*: ranks per request, field cache MB
	flowProcs              int // flowscale: modeled ranks
	layerFlowProcs         int // flowsim layer rows (half the flowscale exchange)
	scaleProcs             int // torus/schedule layer rows
	modelProcs             int // core.RunModel layer row
}

// frameRanks is the rank count of frame-render and frame-io; paperN is
// the paper's smallest volume, which the model-scale layer rows use.
const frameRanks, paperN = 8, 1120

var fullSizes = sizes{
	renderN: 96, renderImg: 512,
	ioN: 160, ioImg: 64,
	compN: 16, compImg: 1024, compProcs: 64, compM: 16,
	serveN: 64, serveImg: 128, serveProcs: 8, serveCache: 64,
	flowProcs: 2048, layerFlowProcs: 1024,
	scaleProcs: 32768, modelProcs: 16384,
}

var tinySizes = sizes{
	renderN: 16, renderImg: 32,
	ioN: 16, ioImg: 16,
	compN: 8, compImg: 64, compProcs: 8, compM: 4,
	serveN: 16, serveImg: 32, serveProcs: 4, serveCache: 1,
	flowProcs: 64, layerFlowProcs: 64,
	scaleProcs: 512, modelProcs: 512,
}

// config is one run's inputs.
type config struct {
	seed    int64
	seconds float64
	tiny    bool // smoke test: one set-up, no warm-up, two ops
	sz      sizes
	scratch string // directory for scene files, inside the checkout
	clients int    // closed-loop callers of the serve workloads
}

// workload is one row of the benchmark: a set-up that builds inputs,
// references and (for serve-*) the server, and the op it then repeats.
type workload struct {
	name      string
	why       string
	gated     bool // listed in BENCHMARK.json, so the benchmark driver runs it
	minOps    int  // floor on ops per window, whatever -seconds says
	setupReps int  // set-ups per run; setup_s is their median
	serve     bool // driven by cfg.clients callers instead of one
	serial    bool // ops run on one goroutine, so the host-speed kernel does too
	setup     func(cfg *config) (*instance, error)
}

// instance is a set-up workload. layer reports the per-layer numbers
// only this workload's own ops can give (stage medians, service
// latencies); it may be nil.
type instance struct {
	op    opFunc
	layer func(m metrics)
	close func()
}

// frameMinOps and modelMinOps floor the ops of a window: a median of
// fewer frames or requests, or of fewer model evaluations, is not
// steady enough to compare.
const frameMinOps, modelMinOps = 30, 5

var workloads = []workload{
	{name: "frame-render", gated: true, minOps: frameMinOps, setupReps: 3, setup: setupFrameRender,
		why: "96^3 raw file, 512^2 image, 8 ranks: ray casting is ~80% of the frame, so render/volume kernel gains must show here and compose/netcdf changes must not"},
	{name: "frame-io", gated: true, minOps: frameMinOps, setupReps: 3, setup: setupFrameIO,
		why: "160^3 variable in an 82 MB 5-variable netCDF record file, 64^2 image: two-phase collective read + big-endian decode are ~85%; record-interleaved where frame-render reads contiguous"},
	{name: "frame-composite", gated: true, minOps: frameMinOps, setupReps: 3, setup: setupFrameComposite,
		why: "16^3 volume at step 16, 1024^2 image, 64 ranks, 16 compositors (m<n): direct-send exchange + over operator are ~40%, sampling and I/O almost nothing"},
	{name: "serve-hot", minOps: frameMinOps, setupReps: 3, serve: true, setup: setupServeHot,
		why: "one repeated POST /render body: every request hits the field cache, so the frame, admission, report and PPM/base64/JSON path is what is timed"},
	{name: "serve-miss", gated: true, minOps: frameMinOps, setupReps: 3, serve: true, setup: setupServeMiss,
		why: "same server and body but a distinct seeded time per request: every request misses, generation dominates and the working set overruns the 64 MB cache so eviction runs"},
	{name: "flowscale", gated: true, minOps: modelMinOps, setupReps: 2, serial: true, setup: setupFlowscale,
		why: "one exact max-min flow simulation of the 2048-rank direct-send exchange (workers=1): the modeled scale point, none of the real-mode layers run"},
	{name: "model-sweep", minOps: modelMinOps, setupReps: 2, setup: setupModelSweep,
		why: "fidelity.Evaluate: Fig 3-7 and Table II at paper scale through the analytic model, scored against the paper; real-mode and flowsim changes must leave it flat"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- frames ---------------------------------------------------------

// imageTolerance is how far a parallel frame may sit from the serial
// reference (float32 compositing order differs; measured 2e-6).
const imageTolerance = 2e-5

func sameImage(got, ref *img.Image) error {
	if got == nil || got.W != ref.W || got.H != ref.H {
		return fmt.Errorf("image missing or wrong size")
	}
	// img.MaxDiff's bound, written so that a megapixel check costs a few
	// milliseconds of the window rather than twenty; !(d <= tol) also
	// catches NaN.
	for i, p := range got.Pix {
		q := ref.Pix[i]
		for _, d := range [4]float32{p.R - q.R, p.G - q.G, p.B - q.B, p.A - q.A} {
			if d < 0 {
				d = -d
			}
			if !(d <= imageTolerance) {
				return fmt.Errorf("pixel %d differs from the serial reference by %g (img.MaxDiff %g)", i, d, img.MaxDiff(got, ref))
			}
		}
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// stages rebuilds a frame's stage spans under parent from the
// StageTimes the call returned. The stages are consecutive and end
// where the call ends; what precedes them (planning, world start) stays
// the parent's self time.
func (t *opTrace) stages(parent int, start time.Time, d time.Duration, st core.StageTimes) {
	if t == nil {
		return
	}
	at := start.Add(max(0, d-seconds(st.Total)))
	for _, s := range []struct {
		name string
		sec  float64
	}{{"stage io", st.IO}, {"stage render", st.Render}, {"stage composite", st.Composite}} {
		t.span(parent, s.name, at, seconds(s.sec))
		at = at.Add(seconds(s.sec))
	}
}

// frameLog collects the stage times of the frames a workload ran.
type frameLog struct {
	mu                    sync.Mutex
	io, render, comp, gap []float64 // ms
}

func (l *frameLog) add(st core.StageTimes, call time.Duration) {
	l.mu.Lock()
	l.io = append(l.io, st.IO*1e3)
	l.render = append(l.render, st.Render*1e3)
	l.comp = append(l.comp, st.Composite*1e3)
	l.gap = append(l.gap, ms(call)-st.Total*1e3)
	l.mu.Unlock()
}

func (l *frameLog) emit(m metrics) {
	n := int64(len(l.io))
	m.put("core.io_ms", median(l.io), n)
	m.put("core.render_ms", median(l.render), n)
	m.put("core.composite_ms", median(l.comp), n)
	m.put("core.stage_gap_ms", median(l.gap), n)
}

// frameInstance repeats one core.RunReal configuration and checks each
// image against the serial reference.
func frameInstance(rc core.RealConfig, ref *img.Image) *instance {
	log := &frameLog{}
	return &instance{
		op: func(_ int, tr *opTrace) (time.Duration, error) {
			start := time.Now()
			res, err := core.RunReal(rc)
			d := time.Since(start)
			if err != nil {
				return d, err
			}
			tr.stages(tr.span(0, "core.RunReal", start, d), start, d, res.Times)
			log.add(res.Times, d)
			return d, tr.check(func() error { return sameImage(res.Image, ref) })
		},
		layer: log.emit,
		close: func() {},
	}
}

// serialReference renders the whole field on one goroutine.
func serialReference(s core.Scene, f *volume.Field) *img.Image {
	im, _ := render.RenderFull(f, s.Camera(), s.Transfer(), s.RenderConfig())
	return im
}

func setupFrameRender(cfg *config) (*instance, error) {
	s := core.DefaultScene(cfg.sz.renderN, cfg.sz.renderImg)
	f := s.Supernova().GenerateFull(s.Variable, s.Dims)
	path := filepath.Join(cfg.scratch, "frame-render.raw")
	if err := rawfmt.Write(path, f); err != nil {
		return nil, err
	}
	return frameInstance(core.RealConfig{Scene: s, Procs: frameRanks,
		Format: core.FormatRaw, Path: path}, serialReference(s, f)), nil
}

// varNames are the five VH-1 variables of a time step, in file order.
func varNames() []string {
	names := make([]string, volume.NumVars)
	for v := volume.Var(0); v < volume.NumVars; v++ {
		names[v] = v.Name()
	}
	return names
}

// recordFile lays out the paper's file: five record variables, records
// interleaved, classic netCDF.
func recordFile(dims grid.IVec3) (*netcdf.File, error) {
	return netcdf.NewVolumeFile(netcdf.V2, dims, varNames(), true)
}

func setupFrameIO(cfg *config) (*instance, error) {
	s := core.DefaultScene(cfg.sz.ioN, cfg.sz.ioImg)
	f := s.Supernova().GenerateFull(s.Variable, s.Dims)
	nf, err := recordFile(s.Dims)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.scratch, "frame-io.nc")
	plane := s.Dims.X * s.Dims.Y
	// Only the scene variable is ever read; the other four exist to give
	// the file the paper's record-interleaved layout, so they repeat one
	// plane rather than cost four more volume generations per set-up.
	err = netcdf.WriteFile(path, nf, func(v int, rec int64) []float32 {
		if volume.Var(v) != s.Variable {
			rec = 0
		}
		return f.Data[int(rec)*plane : (int(rec)+1)*plane]
	})
	if err != nil {
		return nil, err
	}
	return frameInstance(core.RealConfig{Scene: s, Procs: frameRanks,
		Format: core.FormatNetCDF, Path: path}, serialReference(s, f)), nil
}

// compositeScene is frame-composite's scene: one sample per ray and
// block, so the frame is ray set-up and compositing.
func compositeScene(sz sizes) core.Scene {
	s := core.DefaultScene(sz.compN, sz.compImg)
	s.Step = float64(sz.compN)
	return s
}

func setupFrameComposite(cfg *config) (*instance, error) {
	s := compositeScene(cfg.sz)
	f := s.Supernova().GenerateFull(s.Variable, s.Dims)
	return frameInstance(core.RealConfig{Scene: s, Procs: cfg.sz.compProcs,
		Compositors: cfg.sz.compM, Format: core.FormatGenerate}, serialReference(s, f)), nil
}

// ---- render service -------------------------------------------------

// serveLog collects what the service's callers observed.
type serveLog struct {
	frameLog
	latency, frame, overhead []float64 // ms
	respBytes                int64
	refused                  int64 // 429 + 503
}

func (l *serveLog) add(lat time.Duration, st core.StageTimes, bytes int) {
	// The service's own overhead is what the caller waited beyond the
	// frame, so the frame log's gap is that, not RunReal's.
	l.frameLog.add(st, lat)
	l.mu.Lock()
	l.latency = append(l.latency, ms(lat))
	l.frame = append(l.frame, st.Total*1e3)
	l.overhead = append(l.overhead, ms(lat)-st.Total*1e3)
	l.respBytes += int64(bytes)
	l.mu.Unlock()
}

// emit reports the serve.* numbers; the stage medians of the frames
// behind them are the embedded frameLog's to report.
func (l *serveLog) emit(m metrics, st serve.StatusReply) {
	n := int64(len(l.latency))
	m.put("serve.frame_ms_p50", median(l.frame), n)
	m.put("serve.overhead_ms_p50", median(l.overhead), n)
	m.put("serve.latency_ms_p95", quantile(l.latency, 0.95), n)
	m.put("serve.latency_ms_p99", quantile(l.latency, 0.99), n)
	m.put("serve.response_kb", float64(l.respBytes)/1024/float64(max(n, 1)), n)
	lookups := st.Cache.FieldHits + st.Cache.FieldMisses
	m.put("serve.field_hit_ratio", float64(st.Cache.FieldHits)/float64(max(lookups, 1)), lookups)
	m.put("serve.field_bytes_mb", float64(st.Cache.FieldBytes)/1e6, int64(st.Cache.FieldEntries))
	m.put("serve.refused", float64(l.refused+st.Rejected429+st.Deadline503), n)
}

// renderReply is the part of serve.RenderResponse the checks read.
type renderReply struct {
	Times    core.StageTimes `json:"times"`
	ImagePPM string          `json:"image_ppm"`
}

func newServer(cfg *config) *serve.Server {
	return serve.New(serve.Config{
		MaxConcurrent: 2, Workers: 1, CacheMB: cfg.sz.serveCache,
		Registry: obs.NewRegistry(),
		Log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

func renderBody(cfg *config, t float64) []byte {
	b, err := json.Marshal(serve.RenderRequest{N: cfg.sz.serveN, Img: cfg.sz.serveImg,
		Procs: cfg.sz.serveProcs, Time: t, IncludeImage: true})
	if err != nil {
		panic(err) // a struct of numbers and bools always marshals
	}
	return b
}

// directPPM renders the request's scene without the service and
// returns the hash and length of its PPM: what the service must send.
func directPPM(cfg *config, t float64) ([32]byte, int, error) {
	s := core.DefaultScene(cfg.sz.serveN, cfg.sz.serveImg)
	if t != 0 {
		s.Time = t
	}
	res, err := core.RunReal(core.RealConfig{Scene: s, Procs: cfg.sz.serveProcs, Format: core.FormatGenerate})
	if err != nil {
		return [32]byte{}, 0, err
	}
	var buf bytes.Buffer
	if err := res.Image.EncodePPM(&buf, 0); err != nil {
		return [32]byte{}, 0, err
	}
	return sha256.Sum256(buf.Bytes()), buf.Len(), nil
}

// serveInstance drives POST /render over loopback TCP. body gives op
// i's request; want gives the PPM hash it must return when the harness
// holds a reference for it, and every reply must carry ppmLen bytes.
func serveInstance(cfg *config, body func(i int) []byte, want func(i int) ([32]byte, bool), ppmLen int) (*instance, error) {
	srv := newServer(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	url := "http://" + srv.Addr() + "/render"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients}}
	log := &serveLog{}
	op := func(i int, tr *opTrace) (time.Duration, error) {
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body(i)))
		if err != nil {
			return time.Since(start), err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		rt := tr.span(0, "http round trip", start, d)
		if err != nil {
			return d, err
		}
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				log.mu.Lock()
				log.refused++
				log.mu.Unlock()
			}
			return d, fmt.Errorf("POST /render: status %d", resp.StatusCode)
		}
		var rr renderReply
		err = tr.check(func() error {
			if err := json.Unmarshal(raw, &rr); err != nil {
				return err
			}
			ppm, err := base64.StdEncoding.DecodeString(rr.ImagePPM)
			if err != nil {
				return err
			}
			if len(ppm) != ppmLen {
				return fmt.Errorf("PPM of %d bytes, want %d", len(ppm), ppmLen)
			}
			if sum, ok := want(i); ok && sha256.Sum256(ppm) != sum {
				return fmt.Errorf("op %d: PPM differs from the direct render", i)
			}
			return nil
		})
		if err != nil {
			return d, err
		}
		frame := seconds(rr.Times.Total)
		tr.stages(tr.span(rt, "server frame", start.Add(max(0, d-frame)), frame), start, d, rr.Times)
		log.add(d, rr.Times, len(raw))
		return d, nil
	}
	return &instance{
		op: op,
		layer: func(m metrics) {
			log.frameLog.emit(m)
			log.emit(m, srv.Status())
		},
		close: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx) // a drain timeout only leaves connections to the process exit
			client.CloseIdleConnections()
		},
	}, nil
}

func setupServeHot(cfg *config) (*instance, error) {
	sum, n, err := directPPM(cfg, 0)
	if err != nil {
		return nil, err
	}
	body := renderBody(cfg, 0)
	inst, err := serveInstance(cfg, func(int) []byte { return body },
		func(int) ([32]byte, bool) { return sum, true }, n)
	if err != nil {
		return nil, err
	}
	// Fill the field cache, so the first measured request is a hit too.
	if _, err := inst.op(-1, nil); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// missSample is how many of serve-miss's requests are checked against
// a direct render; they are drawn from the ops every window runs.
const missSample = 8

func setupServeMiss(cfg *config) (*instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	// One distinct time per op: used[] rejects the (unlikely) repeat,
	// which would turn a miss into a hit.
	var mu sync.Mutex // ops ask from concurrent callers
	var times []float64
	used := map[float64]bool{}
	timeOf := func(i int) float64 {
		if i < 0 {
			return 0.25 + 0.01*float64(-i) // warm-up ops, outside the drawn range
		}
		mu.Lock()
		defer mu.Unlock()
		for len(times) <= i {
			if t := 0.5 + rng.Float64(); !used[t] {
				used[t] = true
				times = append(times, t)
			}
		}
		return times[i]
	}
	minOps := frameMinOps
	if cfg.tiny {
		minOps = 2
	}
	want := map[int][32]byte{}
	ppmLen := 0
	for _, i := range rand.New(rand.NewSource(cfg.seed + 1)).Perm(minOps)[:min(missSample, minOps)] {
		sum, n, err := directPPM(cfg, timeOf(i))
		if err != nil {
			return nil, err
		}
		want[i], ppmLen = sum, n
	}
	return serveInstance(cfg,
		func(i int) []byte { return renderBody(cfg, timeOf(i)) },
		func(i int) ([32]byte, bool) { s, ok := want[i]; return s, ok }, ppmLen)
}

// ---- modeled scale --------------------------------------------------

// flowPhase is the direct-send exchange flowscale simulates.
func flowPhase(cfg *config, procs int) (torus.Topology, torus.Params, []torus.Message) {
	return core.CompositePhaseMessages(machine.NewBGP(),
		core.DefaultScene(64, 256), procs, 0, 0)
}

// countFlows is how many messages cross the network (the rest cost
// only their endpoint overheads and never complete as flows).
func countFlows(msgs []torus.Message) int {
	n := 0
	for _, m := range msgs {
		if m.Src != m.Dst && m.Bytes != 0 {
			n++
		}
	}
	return n
}

func setupFlowscale(cfg *config) (*instance, error) {
	top, p, msgs := flowPhase(cfg, cfg.sz.flowProcs)
	ref := flowsim.Simulate(top, p, msgs)
	flows := countFlows(msgs)
	return &instance{
		op: func(_ int, tr *opTrace) (time.Duration, error) {
			start := time.Now()
			res, _ := flowsim.SimulateOpt(top, p, msgs, flowsim.Options{Workers: 1})
			d := time.Since(start)
			tr.span(0, "flowsim.SimulateOpt", start, d)
			return d, tr.check(func() error {
				if math.Float64bits(res.Time) != math.Float64bits(ref.Time) {
					return fmt.Errorf("phase time %v, flowsim.Simulate gives %v", res.Time, ref.Time)
				}
				if res.Completions != flows || ref.Completions != flows {
					return fmt.Errorf("%d completions (reference %d) for %d flows", res.Completions, ref.Completions, flows)
				}
				return nil
			})
		},
		close: func() {},
	}, nil
}

// evaluateSteps is fidelity.Evaluate taken apart into its public
// calls, so each exhibit can be timed; visit sees every call.
func evaluateSteps(mach machine.Machine, visit func(name string, start time.Time, d time.Duration)) (*fidelity.Scorecard, error) {
	d := &fidelity.Data{}
	steps := []struct {
		name string
		run  func() error
	}{
		{"bench.Fig3", func() (err error) { d.Fig3, _, err = bench.Fig3(mach); return }},
		{"bench.Fig4", func() (err error) { d.Fig4, _, err = bench.Fig4(mach); return }},
		{"bench.Fig5", func() (err error) { d.Fig5, _, err = bench.Fig5(mach); return }},
		{"bench.Table2", func() (err error) { d.Table2, _, err = bench.Table2(mach); return }},
		{"bench.Fig6", func() (err error) { d.Fig6, _, err = bench.Fig6(mach); return }},
		{"bench.Fig7", func() (err error) { d.Fig7, _, err = bench.Fig7(mach); return }},
	}
	for _, s := range steps {
		start := time.Now()
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		visit(s.name, start, time.Since(start))
	}
	start := time.Now()
	sc := fidelity.EvaluateData(d)
	visit("fidelity.EvaluateData", start, time.Since(start))
	return sc, nil
}

func setupModelSweep(cfg *config) (*instance, error) {
	mach := machine.NewBGP()
	// The model is analytic, so every later evaluation must reproduce
	// this one's score exactly.
	ref, err := fidelity.Evaluate(mach)
	if err != nil {
		return nil, err
	}
	return &instance{
		op: func(_ int, tr *opTrace) (time.Duration, error) {
			start := time.Now()
			var sc *fidelity.Scorecard
			var err error
			if tr == nil {
				sc, err = fidelity.Evaluate(mach)
			} else {
				sc, err = evaluateSteps(mach, func(name string, s time.Time, d time.Duration) { tr.span(0, name, s, d) })
			}
			d := time.Since(start)
			if err != nil {
				return d, err
			}
			return d, tr.check(func() error {
				if _, _, fail := sc.Counts(); fail != 0 {
					return fmt.Errorf("%d failing claims", fail)
				}
				if sc.Score != ref.Score {
					return fmt.Errorf("score %v, first evaluation gave %v", sc.Score, ref.Score)
				}
				return nil
			})
		},
		close: func() {},
	}, nil
}
