// Command serveload load-tests the bgpvr render service. It drives
// POST /render at one or more steady concurrency levels (a sweep) or
// at a fixed concurrency for a wall-clock duration (a soak), measures
// client-observed latency into the same log-bucketed histogram the
// service uses for /status (obs.Histogram.Quantile), and prints one
// table row per level: requests, 2xx/429/503 splits, throughput, and
// p50/p90/p99. With -perf-report it writes a schema-versioned report
// carrying a service section that perfdiff -only service compares
// against a stored report.
//
// Usage:
//
//	serveload -addr 127.0.0.1:8080 -sweep 1,2,4,8 -requests 40
//	serveload -soak 30s -concurrency 4             (in-process server)
//
// With no -addr the harness starts an in-process server on a loopback
// port — the hermetic mode CI uses, and the quickest way to profile
// the service without deploying it.
//
// Exit status: 0 on success (and after -h), 1 when -min-2xx or
// -p99-budget is set and violated, on a bad -sweep or -mode, or on a
// setup error, 2 on a flag that does not parse.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpvr/internal/cli"
	"bgpvr/internal/obs"
	"bgpvr/internal/serve"
	"bgpvr/internal/telemetry"
)

// point accumulates one concurrency level's outcomes.
type point struct {
	ok, rejected, deadline, errs atomic.Int64
	hist                         *obs.Histogram

	mu        sync.Mutex
	slowest   time.Duration
	slowestID string   // server-assigned X-Request-ID of the slowest request
	failIDs   []string // request IDs of non-2xx responses, capped
}

// maxFailIDs caps the failed-request IDs kept per level; enough to
// pull the traces, bounded so a full-rejection level stays readable.
const maxFailIDs = 8

// observe folds one finished request into the level's ID bookkeeping.
// The server echoes its request ID in the X-Request-ID response
// header, so a recorded ID is directly queryable at /traces/{id}.
func (p *point) observe(d time.Duration, id string, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d > p.slowest {
		p.slowest, p.slowestID = d, id
	}
	if failed && id != "" && len(p.failIDs) < maxFailIDs {
		p.failIDs = append(p.failIDs, id)
	}
}

// run drives total requests (or, when total<0, keeps going until ctx
// expires) at the given steady concurrency against url, posting body.
func (p *point) run(ctx context.Context, client *http.Client, url string, body []byte, concurrency int, total int64) time.Duration {
	var issued atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				if total >= 0 && issued.Add(1) > total {
					return
				}
				t0 := time.Now()
				code, id, err := post(ctx, client, url, body)
				d := time.Since(t0)
				p.hist.Observe(d.Seconds())
				failed := true
				switch {
				case err != nil:
					if ctx.Err() != nil {
						return // soak cut the request off mid-flight
					}
					p.errs.Add(1)
				case code >= 200 && code < 300:
					p.ok.Add(1)
					failed = false
				case code == http.StatusTooManyRequests:
					p.rejected.Add(1)
				case code == http.StatusServiceUnavailable:
					p.deadline.Add(1)
				default:
					p.errs.Add(1)
				}
				p.observe(d, id, failed)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// post issues one render request and returns the status code plus the
// server-assigned X-Request-ID (empty against a non-bgpvr target).
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Request-ID"), nil
}

// cacheCounters reads the service's field-cache counters from
// /status; zeros (and false) when the endpoint is unreachable, so the
// harness degrades gracefully against a non-bgpvr target.
func cacheCounters(client *http.Client, base string) (hits, misses int64, ok bool) {
	resp, err := client.Get(base + "/status")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		return 0, 0, false
	}
	defer resp.Body.Close()
	var st serve.StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, false
	}
	return st.Cache.FieldHits, st.Cache.FieldMisses, true
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serveload", flag.ContinueOnError)
	addr := fs.String("addr", "", "service address host:port (empty: start an in-process server)")
	sweepArg := fs.String("sweep", "1,2,4", "comma-separated concurrency levels to sweep")
	requests := fs.Int("requests", 20, "requests per sweep level")
	soak := fs.Duration("soak", 0, "soak duration; nonzero switches from sweep to a single soak point")
	concurrency := fs.Int("concurrency", 4, "soak concurrency")
	mode := fs.String("mode", "real", "render mode: real or model")
	n := fs.Int("n", 32, "volume edge (n^3 voxels)")
	img := fs.Int("img", 0, "image edge (0: 2n)")
	procs := fs.Int("procs", 4, "rank count")
	deadlineMS := fs.Int64("deadline-ms", 0, "per-request deadline (0: server default)")
	p99Budget := fs.Duration("p99-budget", 0, "fail (exit 1) when any level's p99 exceeds this")
	min2xx := fs.Int64("min-2xx", 0, "fail (exit 1) when fewer than this many requests succeed overall")
	emit := cli.Emitter{Out: stdout, Started: time.Now()}
	emit.Register(fs, map[string]string{"perf-report": "write the load-test perf report (JSON) here"})
	serveConc := fs.Int("serve-concurrency", 0, "in-process server: max concurrent frames")
	serveQueue := fs.Int("serve-queue", 0, "in-process server: queue depth")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "serveload:", err)
		return 1
	}

	if *mode != "real" && *mode != "model" {
		return fail(fmt.Errorf("bad -mode %q: want real or model", *mode))
	}
	var levels []int
	if *soak > 0 {
		levels = []int{*concurrency}
	} else {
		for _, part := range strings.Split(*sweepArg, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || c < 1 {
				return fail(fmt.Errorf("bad -sweep level %q", part))
			}
			levels = append(levels, c)
		}
	}

	target := *addr
	if target == "" {
		// Hermetic mode: the server lives in this process on a loopback
		// port. Client-observed latency still crosses a real TCP socket.
		s := serve.New(serve.Config{
			MaxConcurrent: *serveConc,
			QueueDepth:    *serveQueue,
			// The harness table is the output; drop the server's
			// per-request access lines.
			Log: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
		})
		if err := s.Start("127.0.0.1:0"); err != nil {
			return fail(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
		target = s.Addr()
	}
	base := "http://" + target
	body, err := json.Marshal(serve.RenderRequest{
		Mode: *mode, N: *n, Img: *img, Procs: *procs,
		DeadlineMS: *deadlineMS,
	})
	if err != nil {
		return fail(err)
	}
	client := &http.Client{}

	kind := "sweep"
	if *soak > 0 {
		kind = "soak"
	}
	statTarget := *addr
	if statTarget == "" {
		statTarget = "in-process"
	}
	stat := &telemetry.ServiceStat{Mode: kind, Target: statTarget}
	reg := obs.NewRegistry()
	// The same log-2 buckets the service's /status quantiles use, so
	// client- and server-side percentiles are directly comparable.
	buckets := obs.ExpBuckets(0.001, 2, 15)

	fmt.Fprintf(stdout, "serveload: %s against %s (%s mode, n=%d, procs=%d)\n", kind, base, *mode, *n, *procs)
	fmt.Fprintf(stdout, "%5s %9s %7s %7s %7s %7s %9s %9s %9s %9s %9s\n",
		"conc", "requests", "2xx", "429", "503", "err", "rps", "mean_ms", "p50_ms", "p90_ms", "p99_ms")
	var total2xx int64
	var budgetViolations []string
	var allFailIDs []string
	for i, c := range levels {
		p := &point{hist: reg.NewHistogram(fmt.Sprintf("serveload_latency_%d", i),
			"Client-observed request latency.", buckets)}
		h0, m0, haveCache := cacheCounters(client, base)
		ctx := context.Background()
		totalReqs := int64(*requests)
		if *soak > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *soak)
			totalReqs = -1
			defer cancel()
		}
		elapsed := p.run(ctx, client, base+"/render", body, c, totalReqs)

		count := p.hist.Count()
		if *soak > 0 {
			// Latency observations include the requests the soak cut off;
			// only completed ones count toward the outcome columns.
			count = p.ok.Load() + p.rejected.Load() + p.deadline.Load() + p.errs.Load()
		}
		sp := telemetry.ServicePoint{
			Concurrency: c,
			Requests:    count,
			OK:          p.ok.Load(),
			Rejected:    p.rejected.Load(),
			Deadline:    p.deadline.Load(),
			Errors:      p.errs.Load(),
			DurationSec: elapsed.Seconds(),
		}
		if sp.DurationSec > 0 {
			sp.RPS = float64(sp.OK) / sp.DurationSec
		}
		if nObs := p.hist.Count(); nObs > 0 {
			sp.MeanMs = p.hist.Sum() / float64(nObs) * 1e3
			sp.P50Ms = p.hist.Quantile(0.5) * 1e3
			sp.P90Ms = p.hist.Quantile(0.9) * 1e3
			sp.P99Ms = p.hist.Quantile(0.99) * 1e3
		}
		if h1, m1, ok := cacheCounters(client, base); ok && haveCache {
			sp.CacheHits, sp.CacheMisses = h1-h0, m1-m0
		}
		sp.SlowestMs = p.slowest.Seconds() * 1e3
		sp.SlowestID = p.slowestID
		sp.FailIDs = append([]string(nil), p.failIDs...)
		stat.Points = append(stat.Points, sp)
		total2xx += sp.OK
		allFailIDs = append(allFailIDs, sp.FailIDs...)
		fmt.Fprintf(stdout, "%5d %9d %7d %7d %7d %7d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			c, sp.Requests, sp.OK, sp.Rejected, sp.Deadline, sp.Errors,
			sp.RPS, sp.MeanMs, sp.P50Ms, sp.P90Ms, sp.P99Ms)
		// The server tail-samples slow and failed requests, so these IDs
		// are the handles into its /traces/{id} span trees.
		if sp.SlowestID != "" {
			fmt.Fprintf(stdout, "      slowest: %.2fms id=%s (GET %s/traces/%s)\n",
				sp.SlowestMs, sp.SlowestID, base, sp.SlowestID)
		}
		if len(sp.FailIDs) > 0 {
			fmt.Fprintf(stdout, "      failed ids (first %d): %s\n", maxFailIDs, strings.Join(sp.FailIDs, " "))
		}
		if *p99Budget > 0 && sp.P99Ms > float64(p99Budget.Milliseconds()) {
			v := fmt.Sprintf("c=%d p99 %.2fms > budget %v", c, sp.P99Ms, *p99Budget)
			if sp.SlowestID != "" {
				v += fmt.Sprintf(" (slowest request %s: %.2fms)", sp.SlowestID, sp.SlowestMs)
			}
			budgetViolations = append(budgetViolations, v)
		}
	}

	rep := telemetry.NewReport("serveload")
	rep.Config = map[string]string{
		"kind":   kind,
		"target": statTarget,
		"mode":   *mode,
		"n":      strconv.Itoa(*n),
		"procs":  strconv.Itoa(*procs),
		"sweep":  *sweepArg,
	}
	rep.Service = stat
	if err := emit.Emit(rep); err != nil {
		return fail(err)
	}

	failed := false
	if *min2xx > 0 && total2xx < *min2xx {
		msg := fmt.Sprintf("%d requests succeeded, need %d", total2xx, *min2xx)
		if len(allFailIDs) > 0 {
			msg += " (failed request ids: " + strings.Join(allFailIDs, " ") + ")"
		}
		fmt.Fprintf(stderr, "serveload: FAIL: %s\n", msg)
		failed = true
	}
	for _, v := range budgetViolations {
		fmt.Fprintf(stderr, "serveload: FAIL: %s\n", v)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
