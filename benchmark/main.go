// Command benchmark is the repository's performance ledger: seven
// workloads measured end to end, and a traced run that times every
// layer from outside. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md here says why each one exists.
//
//	bash benchmark/run.sh                         every workload, timed then traced
//	bash benchmark/run.sh -rounds 10 -trace 0     ten timed rounds, seeds seed..seed+9
//	bash benchmark/run.sh --workload frame-io --seed 3 --seconds 20 --trace 1
//	bash benchmark/run.sh -compare a/results.json b/results.json
//
// A single-workload run ends with one JSON line: correct, attempted,
// failed, metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Bound (end-to-end metrics
// only) is the share of the parent's median by which the metric may
// worsen before it counts as a regression. The times carry the widest
// bound the driver allows: it accepts a benchmark only if ten runs'
// quartile spread stays inside the bound, and the shared host this was
// defined on slows every workload by 20-50 % for up to a minute at a
// time (README.md, "The quietest part").
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const lower, higher = "lower", "higher"

var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_ms_p50", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.02},
	{"alloc_mb_per_op", "MB", lower, 0.02},
}

var perLayer = []metricDef{
	{Name: "volume.generate_ns_per_voxel", Unit: "ns", Better: lower},
	{Name: "volume.sample_ns", Unit: "ns", Better: lower},
	{Name: "volume.transfer_lookup_ns", Unit: "ns", Better: lower},
	{Name: "render.ns_per_sample", Unit: "ns", Better: lower},
	{Name: "render.ns_per_ray_setup", Unit: "ns", Better: lower},
	{Name: "render.samples_per_frame", Unit: "count", Better: lower},
	{Name: "render.mask_build_ms", Unit: "ms", Better: lower},
	{Name: "render.allocs_per_block", Unit: "count", Better: lower},
	{Name: "img.over_ns_per_px", Unit: "ns", Better: lower},
	{Name: "img.encode_ppm_ns_per_px", Unit: "ns", Better: lower},
	{Name: "compose.directsend_ns_per_px", Unit: "ns", Better: lower},
	{Name: "compose.directsend_bytes", Unit: "count", Better: lower},
	{Name: "compose.directsend_msgs", Unit: "count", Better: lower},
	{Name: "compose.bswap_ns_per_px", Unit: "ns", Better: lower},
	{Name: "compose.radixk_ns_per_px", Unit: "ns", Better: lower},
	{Name: "compose.schedule_ms", Unit: "ms", Better: lower},
	{Name: "compose.allocs_per_frame", Unit: "count", Better: lower},
	{Name: "comm.pingpong_us", Unit: "us", Better: lower},
	{Name: "comm.bandwidth_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "comm.barrier8_us", Unit: "us", Better: lower},
	{Name: "comm.barrier64_us", Unit: "us", Better: lower},
	{Name: "comm.alltoallv16_us", Unit: "us", Better: lower},
	{Name: "comm.world_run_us", Unit: "us", Better: lower},
	{Name: "mpiio.collective_read_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "mpiio.collective_read_contig_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "mpiio.independent_read_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "mpiio.plan_ms", Unit: "ms", Better: lower},
	{Name: "mpiio.physical_over_useful", Unit: "ratio", Better: lower},
	{Name: "netcdf.decode_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "netcdf.header_roundtrip_us", Unit: "us", Better: lower},
	{Name: "netcdf.varruns_us", Unit: "us", Better: lower},
	{Name: "rawfmt.decode_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "h5lite.read_extent_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "vfile.readat_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "grid.runs_us", Unit: "us", Better: lower},
	{Name: "halo.exchange_ms", Unit: "ms", Better: lower},
	{Name: "core.io_ms", Unit: "ms", Better: lower},
	{Name: "core.render_ms", Unit: "ms", Better: lower},
	{Name: "core.composite_ms", Unit: "ms", Better: lower},
	{Name: "core.stage_gap_ms", Unit: "ms", Better: lower},
	{Name: "core.run_model_ms", Unit: "ms", Better: lower},
	{Name: "core.phase_messages_ms", Unit: "ms", Better: lower},
	{Name: "flowsim.events", Unit: "count", Better: lower},
	{Name: "flowsim.events_per_s", Unit: "1/s", Better: higher},
	{Name: "flowsim.us_per_flow", Unit: "us", Better: lower},
	{Name: "flowsim.timed_kernel_ms", Unit: "ms", Better: lower},
	{Name: "flowsim.w2_ms", Unit: "ms", Better: lower},
	{Name: "torus.phase_ms", Unit: "ms", Better: lower},
	{Name: "torus.route_ns", Unit: "ns", Better: lower},
	{Name: "pfs.read_time_parts_us", Unit: "us", Better: lower},
	{Name: "bench.fig3_ms", Unit: "ms", Better: lower},
	{Name: "bench.fig4_ms", Unit: "ms", Better: lower},
	{Name: "bench.fig5_ms", Unit: "ms", Better: lower},
	{Name: "bench.table2_ms", Unit: "ms", Better: lower},
	{Name: "bench.fig6_ms", Unit: "ms", Better: lower},
	{Name: "bench.fig7_ms", Unit: "ms", Better: lower},
	{Name: "fidelity.pass", Unit: "count", Better: higher},
	{Name: "fidelity.warn", Unit: "count", Better: lower},
	{Name: "fidelity.score", Unit: "ratio", Better: higher},
	{Name: "serve.frame_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.handler_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.latency_ms_p95", Unit: "ms", Better: lower},
	{Name: "serve.latency_ms_p99", Unit: "ms", Better: lower},
	{Name: "serve.field_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.field_bytes_mb", Unit: "MB", Better: lower},
	{Name: "serve.response_kb", Unit: "KB", Better: lower},
	{Name: "serve.status_us", Unit: "us", Better: lower},
	{Name: "serve.metrics_scrape_us", Unit: "us", Better: lower},
	{Name: "serve.refused", Unit: "count", Better: lower},
	{Name: "trace.span_on_ns", Unit: "ns", Better: lower},
	{Name: "trace.span_off_ns", Unit: "ns", Better: lower},
	{Name: "trace.frame_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "critpath.frame_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "critpath.analyze_ms", Unit: "ms", Better: lower},
	{Name: "telemetry.frame_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: lower},
	{Name: "par.for_us", Unit: "us", Better: lower},
	{Name: "par.gang_round_us", Unit: "us", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "runtime.goroutines_after", Unit: "count", Better: lower},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: lower},
}

// unitOf is filled from the two tables; put panics on a name outside
// them, which only a harness bug can produce.
var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		u[d.Name] = d.Unit
	}
	return u
}()

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default.
// The driver makes 4 + 22 runs per gated workload inside 3420 s, so five
// gated workloads leave each run 29 s for its build check, set-ups,
// warm-up and window; README.md, "Which workloads the driver runs".
const runSeconds = 20

// manifest is BENCHMARK.json; `-manifest` prints it from the tables
// above so the file and the harness cannot drift apart.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestRow `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type manifestRow struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		if w.gated {
			m.Workloads = append(m.Workloads, manifestRow{w.name, w.why})
		}
	}
	return m
}

// result is a run's last output line, in the driver's format.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// fingerprint says where numbers came from, so results from different
// hosts are never compared silently.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_revision"`
	Clients    int     `json:"serve_clients"`
	Seconds    float64 `json:"seconds"`
}

func hostFingerprint(cfg *config) fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: "unknown", Clients: cfg.clients, Seconds: cfg.seconds}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.GitRev = s.Value
			}
		}
	}
	return fp
}

// maxWarmup bounds the untimed ops before a window: three, or fewer
// once they have taken this long (one op of the two slow workloads).
const maxWarmup = 1500 * time.Millisecond

// spanFile is what a traced run writes when it ends.
type spanFile struct {
	Host      fingerprint `json:"host"`
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	TracedOps int         `json:"traced_ops"`
	OpMs      float64     `json:"traced_op_ms_total"`
	Self      []selfTime  `json:"self_times"`
	Spans     []span      `json:"spans"`
}

// run executes one workload once — timed, or traced with the layer
// table — and prints what it measured to out.
func run(w *workload, cfg *config, traced bool, outDir string, out io.Writer) (*result, error) {
	fp := hostFingerprint(cfg)
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\nhost: %s, %d cpus, GOMAXPROCS %d, %s, rev %s, %d serve clients\n",
		w.name, cfg.seed, cfg.seconds, traced, fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.GitRev, fp.Clients)

	host := &speedReader{serial: w.serial}
	reps := w.setupReps
	if traced || cfg.tiny {
		reps = 1
	}
	var inst *instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		host.read()
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()

	res := &result{Metrics: metrics{}}
	if !cfg.tiny {
		start := time.Now()
		for i := 1; i <= 3 && (i == 1 || time.Since(start) < maxWarmup); i++ {
			res.Attempted++
			if _, err := inst.op(-i, nil); err != nil {
				res.Failed++
				fmt.Fprintf(out, "warm-up op failed: %v\n", err)
			}
		}
	}
	clients, minOps, secs := 1, w.minOps, cfg.seconds
	if w.serve {
		clients = cfg.clients
	}
	var rec *recorder
	if traced {
		// Half the window each for traced and untraced ops; the layer
		// table takes the rest of the run's time.
		rec, minOps, secs = newRecorder(), max(2, minOps/2), secs/2
	}
	if cfg.tiny {
		minOps = 1
		if traced {
			minOps = 2 // one traced op and one untraced
		}
	}
	win := runWindow(inst.op, clients, secs, minOps, rec, host)
	res.Attempted += len(win.ops)
	res.Failed += win.failed
	if win.firstEr != nil {
		fmt.Fprintf(out, "%d of %d ops failed; first: %v\n", win.failed, len(win.ops), win.firstEr)
	}
	ops := float64(len(win.ops))
	m := res.Metrics

	if !traced {
		opMs, perS, cpuMs := win.quietest()
		n, f := int64(len(win.ops)), host.factor()
		fmt.Fprintf(out, "as measured, whole window:     op p50 %.4f ms, %.4f ops/s, cpu %.4f ms/op\n",
			median(win.durs(false)), float64(len(win.ops)-win.failed)/win.total.wall.Seconds(), ms(win.total.cpu)/ops)
		fmt.Fprintf(out, "as measured, best of %2d parts: op p50 %.4f ms, %.4f ops/s, cpu %.4f ms/op, set-up %.4f s\n",
			len(win.parts), opMs, perS, cpuMs, median(setups))
		fmt.Fprintf(out, "host-speed kernel: best of %d readings %.4f ms, reference %.4f ms; below, times at reference speed (x %.4f)\n",
			host.reads, ms(host.best), ms(refKernel), f)
		m.put("setup_s", median(setups)*f, int64(len(setups)))
		m.put("op_ms_p50", opMs*f, n)
		m.put("ops_per_s", perS/f, n)
		m.put("cpu_ms_per_op", cpuMs*f, n)
		m.put("allocs_per_op", float64(win.total.mallocs)/ops, n)
		m.put("alloc_mb_per_op", float64(win.total.bytes)/1e6/ops, n)
		res.Correct = res.Failed == 0
		return res, printMetrics(out, endToEnd, m)
	}

	own := metrics{}
	if inst.layer != nil {
		inst.layer(own)
	}
	own.put("runtime.gc_cycles", float64(win.total.gcCycles), 0)
	own.put("runtime.gc_pause_ms", ms(win.total.gcPause), int64(win.total.gcCycles))
	own.put("runtime.peak_rss_mb", peakRSSMB(), 0)
	tracedMs := win.durs(true)
	own.put("harness.trace_overhead_ratio", median(tracedMs)/median(win.durs(false)), int64(len(tracedMs)))
	inst.close()
	inst = nil
	time.Sleep(50 * time.Millisecond) // lets the closed server's connection goroutines exit
	own.put("runtime.goroutines_after", float64(runtime.NumGoroutine()), 0)

	fmt.Fprintf(out, "\nlayer table (each layer's public calls, timed from outside):\n")
	err := runLayerTable(cfg, m, func(row layerRow, d time.Duration) {
		fmt.Fprintf(out, "  %-22s %-58s %-62s %7.0f ms\n", row.layer, row.call, row.size(cfg.sz), ms(d))
	})
	if err != nil {
		return nil, err
	}
	// The workload's own ops outrank the table's stand-in probes.
	for k, v := range own {
		m[k] = v
	}

	if err := writeSpans(out, outDir, spanFile{Host: fp, Workload: w.name, Seed: cfg.seed,
		TracedOps: len(tracedMs), Spans: rec.spans}); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, printMetrics(out, perLayer, m)
}

// writeSpans prints the traced ops' self time per span name and writes
// the span file.
func writeSpans(out io.Writer, outDir string, f spanFile) error {
	f.Self, f.OpMs = selfTimes(f.Spans)
	fmt.Fprintf(out, "\nself time of %d traced ops (%.1f ms):\n", f.TracedOps, f.OpMs)
	var sum float64
	for _, s := range f.Self {
		fmt.Fprintf(out, "  %-24s %6d spans %10.2f ms %6.1f%%\n", s.Name, s.Count, s.SelfMs, 100*s.Share)
		sum += s.SelfMs
	}
	fmt.Fprintf(out, "  self times sum to %.4f of the traced op time\n", sum/f.OpMs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, f.Workload+".spans.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  %d spans written to %s\n\n", len(f.Spans), path)
	return nil
}

// printMetrics prints every metric of defs by name with its unit, and
// fails when the run did not produce exactly that list.
func printMetrics(out io.Writer, defs []metricDef, m metrics) error {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(out, "%-40s %14.6g %-6s", d.Name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(out, " (n=%d)", v.N)
		}
		fmt.Fprintln(out)
	}
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(m), len(defs))
	}
	return nil
}

// runRecord is one child run as results.json keeps it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	result
}

// resultsFile is what `-compare` reads.
type resultsFile struct {
	Host fingerprint `json:"host"`
	Seed int64       `json:"seed"`
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload in its own process, as the driver does:
// `rounds` timed rounds with seeds seed, seed+1, ..., the workloads
// interleaved round-robin so host drift does not land on one of them,
// then one traced pass. gatedOnly leaves out the workloads the driver
// does not run.
func runAll(cfg *config, rounds int, timed, traced, gatedOnly bool, outDir string) error {
	var ws []*workload
	for i := range workloads {
		if workloads[i].gated || !gatedOnly {
			ws = append(ws, &workloads[i])
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Host: hostFingerprint(cfg), Seed: cfg.seed}
	child := func(w *workload, seed int64, trace int) error {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &buf), os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		rec := runRecord{Workload: w.name, Seed: seed, Trace: trace, WallS: time.Since(start).Seconds()}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", w.name, err)
		}
		file.Runs = append(file.Runs, rec)
		return nil
	}
	if timed {
		for r := 0; r < rounds; r++ {
			for _, w := range ws {
				if err := child(w, cfg.seed+int64(r), 0); err != nil {
					return err
				}
			}
		}
	}
	if traced {
		for _, w := range ws {
			if err := child(w, cfg.seed, 1); err != nil {
				return err
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	bad := 0
	for _, r := range file.Runs {
		if !r.Correct {
			bad++
		}
	}
	fmt.Printf("\n%d runs (%d with failed ops) written to %s\n", len(file.Runs), bad, path)
	if bad > 0 {
		return fmt.Errorf("%d runs had failed ops", bad)
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all of them)")
	seed := flag.Int64("seed", 1, "input seed: serve-miss's time sequence and the layer table's sample points")
	secs := flag.Float64("seconds", runSeconds, "length of one measured window")
	trace := flag.Int("trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; default: timed, and with all workloads both")
	rounds := flag.Int("rounds", 1, "timed rounds over all workloads, each with the next seed")
	gatedOnly := flag.Bool("gated", false, "with all workloads: only the ones BENCHMARK.json lists, as the driver runs them")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "directory for span files and results.json")
	compare := flag.Bool("compare", false, "compare two results.json files: -compare parent.json change.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json from the harness's own tables")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	switch {
	case *printManifest:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
		return
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two results.json files"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	}

	cfg := &config{seed: *seed, seconds: *secs, sz: fullSizes, clients: min(2, runtime.NumCPU())}
	if *name == "" {
		if err := runAll(cfg, *rounds, *trace != 1, *trace != 0, *gatedOnly, *outDir); err != nil {
			fail(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	// Scene files live under the checkout, never in the system temp dir.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(".bench_build", "scratch-")
	if err != nil {
		fail(err)
	}
	cfg.scratch = scratch
	out := bufio.NewWriter(os.Stdout)
	res, err := run(w, cfg, *trace == 1, *outDir, out)
	os.RemoveAll(scratch)
	out.Flush()
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}
