// Package fidelity encodes the paper's published evaluation — the
// point values, curve shapes, and crossover locations of Fig 3-7 and
// Table II — as machine-readable expectations, and scores this
// repository's regenerated results against them. The output is a
// per-claim scorecard (relative error, pass/warn/fail, aggregate
// fidelity score) that cmd/experiments prints, perf reports embed
// (schema 3), cmd/perfdiff diffs, and CI gates on: the paper's shape
// claims are the durable result a model refactor must not silently
// break, and the scorecard makes closeness-to-paper an observable
// quantity instead of hand-pasted prose in EXPERIMENTS.md.
package fidelity

import (
	"fmt"
	"math"
	"strings"

	"bgpvr/internal/telemetry"
)

// Kind classifies what a claim pins down.
type Kind string

// The claim kinds.
const (
	// KindPoint compares a published number against the measured one
	// by relative error under the claim's tolerance bands.
	KindPoint Kind = "point"
	// KindShape checks a qualitative curve predicate (monotonicity,
	// flatness, dominance) that either holds or does not.
	KindShape Kind = "shape"
	// KindCrossover checks where on the core-count axis a predicate
	// flips (e.g. "compositing overtakes rendering beyond 8K").
	KindCrossover Kind = "crossover"
)

// Status is a claim's verdict.
type Status string

// The verdicts. Warn means the measured value tracks the paper's
// qualitative story but misses the number by more than the pass band —
// expected for a calibrated model — while fail means the claim's shape
// or value is not reproduced at all.
const (
	Pass Status = "pass"
	Warn Status = "warn"
	Fail Status = "fail"
)

// Tol is a point claim's relative-error tolerance bands: err <= Warn
// passes, err <= Fail warns, anything beyond (including a missing or
// NaN measurement) fails.
type Tol struct{ Warn, Fail float64 }

// RelErr returns |measured-paper| / |paper|. Edge cases are pinned by
// tests: both zero compares equal (0), a zero paper value with a
// nonzero measurement is infinitely wrong (+Inf, which fails every
// band), and a NaN on either side propagates (NaN fails every band
// because the comparisons are false).
func RelErr(paper, measured float64) float64 {
	if math.IsNaN(paper) || math.IsNaN(measured) {
		return math.NaN()
	}
	if paper == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(measured-paper) / math.Abs(paper)
}

// Outcome is what a claim's evaluator reports before tolerance
// scoring: display strings for both sides and either a relative error
// (point claims) or a predicate verdict (shape/crossover claims).
type Outcome struct {
	Paper, Measured string
	// RelErr drives point claims; NaN means not applicable.
	RelErr float64
	// Holds and Marginal drive predicate claims: holds cleanly ->
	// pass, holds marginally -> warn, broken -> fail.
	Holds, Marginal bool
	// Missing marks an absent measured point; the claim fails with
	// the detail explaining what was not there.
	Missing bool
	Detail  string
}

// Result is one scored claim.
type Result struct {
	ID          string
	Figure      string
	Kind        Kind
	Description string
	Paper       string
	Measured    string
	RelErr      float64 // NaN for predicate claims
	Status      Status
	Detail      string
}

// Score maps a status to its contribution to the aggregate: full
// credit for pass, half for warn, none for fail.
func (s Status) Score() float64 {
	switch s {
	case Pass:
		return 1
	case Warn:
		return 0.5
	}
	return 0
}

// Scorecard is the evaluated claim set plus the aggregate score.
type Scorecard struct {
	Score   float64
	Results []Result
}

// Counts returns how many claims passed, warned, and failed.
func (s *Scorecard) Counts() (pass, warn, fail int) {
	for _, r := range s.Results {
		switch r.Status {
		case Pass:
			pass++
		case Warn:
			warn++
		default:
			fail++
		}
	}
	return
}

// score settles one claim's outcome against its tolerances.
func score(c Claim, o Outcome) Result {
	r := Result{
		ID: c.ID, Figure: c.Figure, Kind: c.Kind, Description: c.Description,
		Paper: o.Paper, Measured: o.Measured, RelErr: o.RelErr, Detail: o.Detail,
	}
	switch {
	case o.Missing:
		r.Status = Fail
		if r.Detail == "" {
			r.Detail = "missing measured point"
		}
		if r.Measured == "" {
			r.Measured = "(missing)"
		}
		r.RelErr = math.NaN()
	case c.Kind == KindPoint:
		switch {
		case o.RelErr <= c.Tol.Warn:
			r.Status = Pass
		case o.RelErr <= c.Tol.Fail:
			r.Status = Warn
		default:
			r.Status = Fail // includes NaN and +Inf
		}
	default:
		switch {
		case o.Holds && !o.Marginal:
			r.Status = Pass
		case o.Holds:
			r.Status = Warn
		default:
			r.Status = Fail
		}
	}
	return r
}

// figureTitles names the scorecard's sections in exhibit order.
var figureTitles = []struct{ id, title string }{
	{"fig3", "Fig 3 — total and component times (1120^3 raw, 1600^2 image)"},
	{"fig4", "Fig 4 — compositing bandwidth vs message size"},
	{"fig5", "Fig 5 — overall frame time, three problem sizes"},
	{"table2", "Table II — volume rendering performance at large sizes"},
	{"fig6", "Fig 6 — time distribution per stage"},
	{"fig7", "Fig 7 — I/O bandwidth by mode"},
}

// Text renders the scorecard as the full per-figure report
// cmd/experiments prints.
func (s *Scorecard) Text() string {
	var b strings.Builder
	pass, warn, fail := s.Counts()
	fmt.Fprintf(&b, "paper-fidelity scorecard: aggregate score %.3f (%d pass, %d warn, %d fail; %d claims)\n",
		s.Score, pass, warn, fail, len(s.Results))
	idw, dw := 0, 0
	for _, r := range s.Results {
		if len(r.ID) > idw {
			idw = len(r.ID)
		}
		if len(r.Description) > dw {
			dw = len(r.Description)
		}
	}
	for _, fig := range figureTitles {
		first := true
		for _, r := range s.Results {
			if r.Figure != fig.id {
				continue
			}
			if first {
				fmt.Fprintf(&b, "\n%s\n", fig.title)
				first = false
			}
			relerr := "     -"
			if !math.IsNaN(r.RelErr) {
				relerr = fmt.Sprintf("%5.1f%%", 100*r.RelErr)
			}
			fmt.Fprintf(&b, "  %-4s %-*s  %-9s %s  %-*s  paper %s, measured %s\n",
				r.Status, idw, r.ID, r.Kind, relerr, dw, r.Description, r.Paper, r.Measured)
			if r.Detail != "" {
				fmt.Fprintf(&b, "       %s\n", r.Detail)
			}
		}
	}
	return b.String()
}

// Stat converts the scorecard to the perf-report section (schema 3).
func (s *Scorecard) Stat() *telemetry.FidelityStat {
	fs := &telemetry.FidelityStat{Score: s.Score}
	fs.Pass, fs.Warn, fs.Fail = s.Counts()
	for _, r := range s.Results {
		cs := telemetry.ClaimStat{
			ID: r.ID, Figure: r.Figure, Kind: string(r.Kind),
			Paper: r.Paper, Measured: r.Measured, Status: string(r.Status), Detail: r.Detail,
		}
		if !math.IsNaN(r.RelErr) && !math.IsInf(r.RelErr, 0) {
			e := r.RelErr
			cs.RelErr = &e
		}
		fs.Claims = append(fs.Claims, cs)
	}
	return fs
}

// WriteFile writes the scorecard (its report-section form) as JSON,
// creating missing parent directories — the CI scorecard artifact.
func (s *Scorecard) WriteFile(path string) error {
	r := telemetry.Report{Schema: telemetry.ReportSchema, Label: "fidelity-scorecard", Fidelity: s.Stat()}
	return r.WriteFile(path)
}
