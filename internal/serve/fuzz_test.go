package serve

import (
	"bytes"
	"math"
	"testing"

	"bgpvr/internal/grid"
)

// FuzzRenderRequest feeds arbitrary bytes to the POST /render decode and
// validate path: it must never panic, and whatever it accepts is a job
// the service can afford — inside the per-mode size limits, with a
// usable step and a finite time and view angle.
func FuzzRenderRequest(f *testing.F) {
	for _, body := range []string{
		`{"n": 16, "img": 32, "procs": 2}`,
		`{"mode": "model", "n": 1120, "img": 1600, "procs": 4096}`,
		`{"mode": "banana"}`,
		`{"n": 4096}`,
		`{"procs": 1000}`,
		`{"algo": "quantum"}`,
		`{"deadline_ms": -5}`,
		`{"deadline_ms": 9300000000000}`,
		`{"unknown_field": 1}`,
		`{"n": 16, "m": 99}`,
		`{"n": 16, "procs": 1, "deadline_ms": 50}`,
		`{"n": 16, "img": 24, "procs": 1, "include_image": true}`,
		`{"n": 64, "img": 128, "procs": 8, "time": 1.25, "seed": -7, "step": 0.5, "azimuth_deg": 400, "algo": "radixk", "persp": true, "shaded": true}`,
		`{"step": 1e999}`,
		`{"time": NaN}`,
		`{} {}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, spec, err := decodeRequest(bytes.NewReader(body), 1)
		if err != nil {
			if spec != nil {
				t.Fatalf("error %v with a job", err)
			}
			return
		}
		maxN, maxProcs, maxImg := maxRealN, maxRealProcs, maxRealImg
		switch spec.mode {
		case "real":
		case "model":
			maxN, maxProcs, maxImg = maxModelN, maxModelProcs, maxModelImg
		default:
			t.Fatalf("accepted mode %q", spec.mode)
		}
		s := spec.scene
		if s.Dims != grid.Cube(s.Dims.X) || s.Dims.X < 8 || s.Dims.X > maxN {
			t.Fatalf("accepted dims %v in mode %s", s.Dims, spec.mode)
		}
		if s.ImageW != s.ImageH || s.ImageW < 8 || s.ImageW > maxImg {
			t.Fatalf("accepted a %dx%d image in mode %s", s.ImageW, s.ImageH, spec.mode)
		}
		if spec.procs < 1 || spec.procs > maxProcs || spec.m < 0 || spec.m > spec.procs {
			t.Fatalf("accepted procs %d, m %d in mode %s", spec.procs, spec.m, spec.mode)
		}
		if !(s.Step > 0 && s.Step <= 16) {
			t.Fatalf("accepted step %v", s.Step)
		}
		if math.IsNaN(s.Time) || math.IsInf(s.Time, 0) || math.IsNaN(s.AzimuthDeg) || math.IsInf(s.AzimuthDeg, 0) {
			t.Fatalf("accepted time %v, azimuth %v", s.Time, s.AzimuthDeg)
		}
		if req.DeadlineMS < 0 || req.DeadlineMS > maxDeadlineMS || (spec.image && spec.mode != "real") {
			t.Fatalf("accepted deadline_ms %d, image %v in mode %s", req.DeadlineMS, spec.image, spec.mode)
		}
	})
}
