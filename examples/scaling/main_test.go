package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the scaling example and checks the paper's two headline
// observations in its model table: every total is I/O-bound, and at
// 32K cores compositing with one compositor per renderer costs many
// times what the limited compositor count does.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	_, model, ok := strings.Cut(out.String(), "model mode:")
	if !ok {
		t.Fatalf("output lacks the model table:\n%s", out.String())
	}
	rows := 0
	for _, line := range strings.Split(model, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 {
			continue
		}
		cores, err := strconv.Atoi(f[0])
		if err != nil {
			continue // the header
		}
		var sec [4]float64 // I/O, render, m = n compositing, limited compositing
		for i := range sec {
			sec[i], _ = strconv.ParseFloat(strings.TrimSuffix(f[i+1], "s"), 64)
		}
		if sec[0] <= sec[1] {
			t.Errorf("row %q: I/O does not dominate", line)
		}
		if cores == 32768 && sec[2] < 5*sec[3] {
			t.Errorf("32K cores: m = n compositing %vs is not 5x the limited %vs", sec[2], sec[3])
		}
		rows++
	}
	if rows != 6 {
		t.Errorf("model table has %d rows, want 6:\n%s", rows, model)
	}
}
