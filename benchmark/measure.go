package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one measured value with the number of samples or work
// items behind it (0 when the value is a plain count or ratio).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"-"`
}

// metrics is what a run emits, keyed by metric name.
type metrics map[string]metric

// put records a value under a name of the endToEnd or perLayer table,
// which supplies the unit.
func (m metrics) put(name string, v float64, n int64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the tables of main.go")
	}
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// quantile is the nearest-rank q-quantile of v (q in [0,1]); v is
// sorted in place. NaN on an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

// median averages the two middle values on an even count, so a
// two-sample median is their mean rather than the larger one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	h := len(v) / 2
	if len(v)%2 == 1 {
		return v[h]
	}
	return (v[h-1] + v[h]) / 2
}

func medianDur(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

// timeMedian calls f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	d := make([]time.Duration, reps)
	for i := range d {
		t := time.Now()
		f()
		d[i] = time.Since(t)
	}
	return medianDur(d)
}

// usage is the process-wide resource reading taken at the edges of a
// measured part.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall: time.Now(), cpu: cpuTime(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// spent is what the process used between two readings.
type spent struct {
	wall, cpu, gcPause time.Duration
	mallocs, bytes     uint64
	gcCycles           uint32
}

func (u usage) since(from usage) spent {
	return spent{wall: u.wall.Sub(from.wall), cpu: u.cpu - from.cpu, gcPause: u.gcPause - from.gcPause,
		mallocs: u.mallocs - from.mallocs, bytes: u.bytes - from.bytes, gcCycles: u.gcCycles - from.gcCycles}
}

func (s *spent) add(o spent) {
	s.wall, s.cpu, s.gcPause = s.wall+o.wall, s.cpu+o.cpu, s.gcPause+o.gcPause
	s.mallocs, s.bytes, s.gcCycles = s.mallocs+o.mallocs, s.bytes+o.bytes, s.gcCycles+o.gcCycles
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// mallocsDuring returns the heap allocations f makes.
func mallocsDuring(f func()) int64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return int64(b.Mallocs - a.Mallocs)
}

// opFunc runs one operation. i is the op's index in the measured
// sequence (negative for warm-up ops); rec is non-nil when the op is
// traced. It returns the time spent inside the program under test —
// output checking happens after that clock stops — and an error when
// the op failed, was refused, or produced a wrong output.
type opFunc func(i int, rec *opTrace) (time.Duration, error)

// opRecord is one op of a window, in completion order.
type opRecord struct {
	dur    time.Duration // inside the program under test
	traced bool
	failed bool
}

// part is about partSeconds of a window: ops[lo:hi] and what the
// process used while they ran. The host-speed kernel runs between
// parts, outside every part's clock.
type part struct {
	lo, hi int
	spent
}

// window is the outcome of one measured window.
type window struct {
	ops     []opRecord
	parts   []part
	total   spent // the parts' sum
	failed  int
	firstEr error
}

// durs returns the op times of the traced or the untraced ops, in ms.
func (w *window) durs(traced bool) []float64 {
	var v []float64
	for _, o := range w.ops {
		if o.traced == traced {
			v = append(v, ms(o.dur))
		}
	}
	return v
}

// partSeconds is how long callers keep issuing ops into one part.
const partSeconds = 1

// quietest returns each time metric from the part of the window in
// which it was best: the lowest median op time (ms), the highest rate
// of verified ops (1/s) and the least CPU per op (ms). This host is
// shared, and what its other tenants do only ever adds time, in bursts
// of seconds and in spells of minutes. A burst spoils the parts it
// covers and leaves the others alone: under a neighbour busy for 4 s in
// every 10, ten-second windows' whole-window median scattered by 37 %
// (quartile distance over median), the best of 5 parts by 13 %, of 20
// parts by 7 %. Spells are what speedReader is for. An op longer than
// partSeconds is a part of its own, so a workload with slow ops reports
// its best op.
func (w *window) quietest() (opMs, perS, cpuMs float64) {
	opMs, cpuMs = math.Inf(1), math.Inf(1)
	for _, p := range w.parts {
		ops := w.ops[p.lo:p.hi]
		durs, verified := make([]float64, len(ops)), 0
		for i, o := range ops {
			durs[i] = ms(o.dur)
			if !o.failed {
				verified++
			}
		}
		opMs = min(opMs, median(durs))
		perS = max(perS, float64(verified)/p.wall.Seconds())
		cpuMs = min(cpuMs, ms(p.cpu)/float64(len(ops)))
	}
	return opMs, perS, cpuMs
}

// runWindow drives op from `clients` closed-loop callers, part after
// part, until both `secs` seconds have passed and minOps ops have run. The
// callers of a part stop issuing when it is partSeconds old and the part
// ends when the last of them has its reply. With rec set, every second
// op is traced, so both kinds see the same host drift.
func runWindow(op opFunc, clients int, secs float64, minOps int, rec *recorder, host *speedReader) *window {
	w := &window{}
	var mu sync.Mutex
	var issued atomic.Int64
	runtime.GC()
	host.read()
	deadline := time.Now().Add(seconds(secs))
	for len(w.ops) < minOps || time.Now().Before(deadline) {
		from := readUsage()
		partEnd := from.wall.Add(partSeconds * time.Second)
		var inPart atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A part's first op always runs, so an op longer than the
				// part still makes progress.
				for inPart.Add(1) == 1 || time.Now().Before(partEnd) {
					i := int(issued.Add(1)) - 1
					var tr *opTrace
					if rec != nil && i%2 == 1 {
						tr = rec.beginOp(i)
					}
					d, err := op(i, tr)
					tr.end()
					mu.Lock()
					w.ops = append(w.ops, opRecord{dur: d, traced: tr != nil, failed: err != nil})
					if err != nil {
						w.failed++
						if w.firstEr == nil {
							w.firstEr = err
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		p := part{lo: 0, hi: len(w.ops), spent: readUsage().since(from)}
		if n := len(w.parts); n > 0 {
			p.lo = w.parts[n-1].hi
		}
		w.parts = append(w.parts, p)
		w.total.add(p.spent)
		host.read()
	}
	return w
}
