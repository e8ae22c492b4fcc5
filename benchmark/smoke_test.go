package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestManifest pins BENCHMARK.json to the harness's own tables and to
// the limits the benchmark driver refuses a file for.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness tables; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef{}, got.EndToEnd...), got.PerLayer...) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{"setup_s", "s", lower, d.Bound}
	}
	for _, d := range got.EndToEnd {
		if d.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", d.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// TestSmoke runs every workload timed and one traced, with the whole
// layer table, on tiny shapes, and checks each run emits exactly the
// metrics BENCHMARK.json lists with no failed op. model-sweep has no
// tiny shape (the paper's exhibits are its input), so this takes about
// ten seconds.
func TestSmoke(t *testing.T) {
	cfg := &config{seed: 1, seconds: 0.01, tiny: true, sz: tinySizes, scratch: t.TempDir(), clients: 2}
	check := func(w *workload, traced bool, defs []metricDef) {
		res, err := run(w, cfg, traced, t.TempDir(), io.Discard)
		if err != nil {
			t.Errorf("%s (traced %v): %v", w.name, traced, err)
			return
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s (traced %v): correct %v, %d of %d ops failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s (traced %v): metric %s missing or in %q, want %q", w.name, traced, d.Name, m.Unit, d.Unit)
			}
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
		}
	}
	for i := range workloads {
		check(&workloads[i], false, endToEnd)
	}
	check(findWorkload("serve-miss"), true, perLayer)
}
