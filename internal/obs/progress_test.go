package obs

import (
	"bytes"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestETAMonotonic pins the heartbeat's ETA math under a fake clock:
// items arriving at a constant rate must never push the ETA up.
func TestETAMonotonic(t *testing.T) {
	p := GetPhase("test-eta")
	p.Start(1000)
	defer p.End()
	base := time.Unix(0, p.startNS.Load())
	last := time.Duration(1<<62 - 1)
	for step := 1; step <= 100; step++ {
		p.Add(10) // constant 10 items per tick
		now := base.Add(time.Duration(step) * time.Second)
		st := p.SnapshotAt(now)
		if st.ETA < 0 {
			t.Fatalf("step %d: ETA unknown with total set and progress made", step)
		}
		if st.ETA > last {
			t.Fatalf("step %d: ETA rose from %v to %v", step, last, st.ETA)
		}
		last = st.ETA
	}
	if last != 0 {
		t.Errorf("completed phase ETA = %v, want 0", last)
	}
}

// TestTickAllocs pins the acceptance criterion: progress ticks are
// zero-alloc — with no heartbeat running (the -progress-off state) and
// on a nil phase handle.
func TestTickAllocs(t *testing.T) {
	p := GetPhase("test-allocs")
	p.Start(0)
	defer p.End()
	if n := testing.AllocsPerRun(1000, func() { p.Add(1) }); n != 0 {
		t.Errorf("Phase.Add allocates %v per tick, want 0", n)
	}
	var nilP *Phase
	if n := testing.AllocsPerRun(1000, func() { nilP.Add(1) }); n != 0 {
		t.Errorf("nil Phase.Add allocates %v per tick, want 0", n)
	}
}

// TestPhaseSessions pins the overlap contract: concurrent sessions
// accumulate totals, and the counters reset only on a fresh burst.
func TestPhaseSessions(t *testing.T) {
	p := GetPhase("test-sessions")
	p.Start(10)
	p.Start(20) // overlapping producer
	p.Add(5)
	st := p.SnapshotAt(time.Now())
	if !st.Active || st.Total != 30 || st.Done != 5 {
		t.Errorf("overlapped stat = %+v, want active, total 30, done 5", st)
	}
	p.End()
	p.End()
	if st := p.SnapshotAt(time.Now()); st.Active {
		t.Error("phase still active after last End")
	}
	p.Start(7) // fresh burst resets
	defer p.End()
	st = p.SnapshotAt(time.Now())
	if st.Done != 0 || st.Total != 7 {
		t.Errorf("fresh burst stat = %+v, want done 0 total 7", st)
	}
}

// TestPhaseConcurrent hammers one phase from many goroutines; the
// -race CI leg runs this under the detector.
func TestPhaseConcurrent(t *testing.T) {
	p := GetPhase("test-conc")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Start(100)
			for i := 0; i < 100; i++ {
				p.Add(1)
			}
			_ = p.SnapshotAt(time.Now())
			p.End()
		}()
	}
	wg.Wait()
	if st := p.SnapshotAt(time.Now()); st.Active {
		t.Errorf("phase active after all sessions ended: %+v", st)
	}
}

// TestHeartbeat checks the periodic emitter: one structured line per
// active phase, mirrored into the flight ring, and a clean Stop.
func TestHeartbeat(t *testing.T) {
	p := GetPhase("test-heartbeat")
	p.Start(50)
	p.Add(25)
	defer p.End()

	var mu sync.Mutex
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	hb := StartHeartbeat(log, time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "phase=test-heartbeat") {
			if !strings.Contains(s, "done=25") || !strings.Contains(s, "total=50") ||
				!strings.Contains(s, "eta=") {
				t.Errorf("heartbeat line missing fields:\n%s", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	hb.Stop()
	var nilHB *Heartbeat
	nilHB.Stop() // must not panic

	found := false
	for _, e := range FlightRing.Events() {
		if e.Kind == "heartbeat" && strings.Contains(e.Msg, "test-heartbeat") {
			found = true
		}
	}
	if !found {
		t.Error("heartbeat not mirrored into the flight ring")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// TestPhaseMetrics checks the /metrics mirror: progress gauges carry
// the phase label and the live numbers.
func TestPhaseMetrics(t *testing.T) {
	p := GetPhase("test-metrics")
	p.Start(8)
	p.Add(2)
	defer p.End()
	var b strings.Builder
	if err := WriteMetricsTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`bgpvr_progress_active{phase="test-metrics"} 1`,
		`bgpvr_progress_done{phase="test-metrics"} 2`,
		`bgpvr_progress_total{phase="test-metrics"} 8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// A burst's edges allocate nothing: the start text is made once per
// phase and the end summary is kept as a value until the ring is read.
func TestPhaseEdgesAllocateNothing(t *testing.T) {
	p := GetPhase("test-edge-allocs")
	if n := testing.AllocsPerRun(1000, func() {
		p.Start(10)
		p.Start(0) // an overlapping session
		p.Add(4)
		p.End()
		p.End()
	}); n != 0 {
		t.Errorf("a burst's Start and End allocate %v objects, want 0", n)
	}
}

// The session that opens a burst resets the counters before any
// overlapping session adds its total, so an overlap's total is never
// erased. The flight ring's lock is held while the first Start runs, so
// that Start stops inside the burst's opening (where it records the
// start) for as long as the test wants; an overlapping Start in that
// time must not have added its total yet, and once both are through the
// burst holds both totals. The sleep only gives a wrong Start the time
// to show itself: a right one passes however the two are scheduled.
func TestPhaseResetKeepsOverlappingTotal(t *testing.T) {
	p := &Phase{name: "test-reset-overlap"} // never started: startNS is 0
	FlightRing.mu.Lock()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.Start(10) }()
	for p.startNS.Load() == 0 {
		runtime.Gosched() // the first Start has not reached its reset yet
	}
	go func() { defer wg.Done(); p.Start(20) }()
	time.Sleep(20 * time.Millisecond)
	early := p.total.Load()
	FlightRing.mu.Unlock()
	wg.Wait()
	if early != 0 {
		t.Errorf("an overlapping session added %d to a burst still being opened", early)
	}
	if st := p.SnapshotAt(time.Now()); !st.Active || st.Total != 30 {
		t.Errorf("after two overlapping Starts: %+v, want active with total 30", st)
	}
	p.End()
	p.End()
}
