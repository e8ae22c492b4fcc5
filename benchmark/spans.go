package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced op. Times are offsets from
// the recorder's epoch; Parent is -1 on the op's root span. Spans are
// recorded by the harness only, around its calls into the program;
// stage spans are rebuilt from the StageTimes a call returned.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// recorder keeps every traced op's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// opTrace collects one op's spans privately (ops run concurrently on
// the serve workloads) and hands them to the recorder when the op
// ends. All methods are no-ops on nil, the untraced case.
type opTrace struct {
	rec   *recorder
	op    int
	start time.Time
	spans []span // IDs and parents are local indices until end()
}

func (r *recorder) beginOp(i int) *opTrace {
	t := &opTrace{rec: r, op: i, start: time.Now()}
	t.spans = append(t.spans, span{Parent: -1, Name: "op"})
	return t
}

// span records a child of parent (0 is the op's root) and returns its
// local id for further nesting.
func (t *opTrace) span(parent int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := us(start.Sub(t.rec.epoch))
	t.spans = append(t.spans, span{Parent: parent, Name: name, StartUs: s, EndUs: s + us(d)})
	return len(t.spans) - 1
}

// check times an output check as a child of the op.
func (t *opTrace) check(f func() error) error {
	start := time.Now()
	err := f()
	t.span(0, "output check", start, time.Since(start))
	return err
}

func (t *opTrace) end() {
	if t == nil {
		return
	}
	t.spans[0].StartUs = us(t.start.Sub(t.rec.epoch))
	t.spans[0].EndUs = us(time.Since(t.rec.epoch))
	r := t.rec
	r.mu.Lock()
	base := len(r.spans)
	for i, s := range t.spans {
		s.ID = base + i // local index -> global id
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Op = t.op
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// selfTime is the per-name attribution of traced op time: a span's
// self time is its duration minus the part its children cover.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of the summed op time
}

// selfTimes attributes every traced op's time to span names and
// returns the rows (largest first) with the summed op time in ms. The
// rows' self times sum to that total: children are clipped to their
// parent and overlapping siblings are counted once.
func selfTimes(spans []span) ([]selfTime, float64) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	var total float64
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		covered, at := 0.0, s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, at), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		row := byName[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.SelfMs += (s.EndUs - s.StartUs - covered) / 1e3
		if s.Parent < 0 {
			total += (s.EndUs - s.StartUs) / 1e3
		}
	}
	rows := make([]selfTime, 0, len(byName))
	for _, r := range byName {
		if total > 0 {
			r.Share = r.SelfMs / total
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows, total
}
