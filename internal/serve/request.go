package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"bgpvr/internal/core"
)

// RenderRequest is the POST /render body. Volumes are always
// synthesized in memory (the supernova generator) so the service never
// touches disk per request; the field cache makes repeats cheap. Zero
// values pick the defaults noted per field.
type RenderRequest struct {
	// Mode is "real" (default: execute the frame with goroutine ranks,
	// return the image) or "model" (compute the virtual Blue Gene/P
	// frame time; supports paper-scale N and Procs).
	Mode string `json:"mode,omitempty"`
	// N is the volume edge (N^3 voxels). Default 32.
	N int `json:"n,omitempty"`
	// Img is the square image edge. Default 2*N.
	Img int `json:"img,omitempty"`
	// Procs is the rank count. Default 4.
	Procs int `json:"procs,omitempty"`
	// M is direct-send's compositor count; 0 keeps each mode's default.
	M int `json:"m,omitempty"`
	// Algo selects compositing: "direct" (default), "binaryswap",
	// "radixk", or "gather". Model mode prices direct and binaryswap
	// and refuses the others.
	Algo string `json:"algo,omitempty"`
	// Camera and shading knobs.
	Persp      bool    `json:"persp,omitempty"`
	Shaded     bool    `json:"shaded,omitempty"`
	AzimuthDeg float64 `json:"azimuth_deg,omitempty"`
	// Step is the sampling step in voxels (default 1).
	Step float64 `json:"step,omitempty"`
	// Seed and Time select the synthesized time step (defaults from
	// core.DefaultScene).
	Seed int64   `json:"seed,omitempty"`
	Time float64 `json:"time,omitempty"`
	// DeadlineMS bounds this request end to end; 0 uses the server's
	// default deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// IncludeImage returns the rendered frame as base64 PPM in the
	// response (real mode only).
	IncludeImage bool `json:"include_image,omitempty"`
}

// Request size limits. Real mode executes the frame, so its volume
// must fit comfortably in memory alongside the caches; model mode is
// analytic and goes to paper scale.
const (
	maxRealN      = 256
	maxRealProcs  = 64
	maxRealImg    = 2048
	maxModelN     = 8192
	maxModelProcs = 1 << 16
	maxModelImg   = 8192
	// A day: far past any frame, far below the ~9.2e12 ms at which the
	// conversion to time.Duration wraps into a negative deadline.
	maxDeadlineMS = 24 * 60 * 60 * 1000
)

// jobSpec is a validated request, resolved to core configs.
type jobSpec struct {
	mode  string
	scene core.Scene
	procs int
	m     int
	algo  core.CompositeAlgo
	image bool
}

// decodeRequest reads a POST /render body — one JSON object, unknown
// fields refused — and validates it. Any error is the client's (400).
func decodeRequest(body io.Reader, workers int) (RenderRequest, *jobSpec, error) {
	var req RenderRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("bad request body: %w", err)
	}
	spec, err := req.validate(workers)
	return req, spec, err
}

// validate applies defaults and bounds, returning the resolved job or
// a client error (served as 400).
func (rr *RenderRequest) validate(workers int) (*jobSpec, error) {
	mode := rr.Mode
	if mode == "" {
		mode = "real"
	}
	if mode != "real" && mode != "model" {
		return nil, fmt.Errorf("mode %q: want real or model", rr.Mode)
	}
	n := rr.N
	if n == 0 {
		n = 32
	}
	img := rr.Img
	if img == 0 {
		img = 2 * n
	}
	procs := rr.Procs
	if procs == 0 {
		procs = 4
	}
	maxN, maxProcs, maxImg := maxRealN, maxRealProcs, maxRealImg
	if mode == "model" {
		maxN, maxProcs, maxImg = maxModelN, maxModelProcs, maxModelImg
	}
	if n < 8 || n > maxN {
		return nil, fmt.Errorf("n %d out of range [8, %d] for mode %s", n, maxN, mode)
	}
	if procs < 1 || procs > maxProcs {
		return nil, fmt.Errorf("procs %d out of range [1, %d] for mode %s", procs, maxProcs, mode)
	}
	if img < 8 || img > maxImg {
		return nil, fmt.Errorf("img %d out of range [8, %d] for mode %s", img, maxImg, mode)
	}
	if rr.M < 0 || rr.M > procs {
		return nil, fmt.Errorf("m %d out of range [0, procs=%d]", rr.M, procs)
	}
	if rr.Step < 0 || rr.Step > 16 {
		return nil, fmt.Errorf("step %g out of range (0, 16]", rr.Step)
	}
	if rr.DeadlineMS < 0 || rr.DeadlineMS > maxDeadlineMS {
		return nil, fmt.Errorf("deadline_ms %d out of range [0, %d]", rr.DeadlineMS, maxDeadlineMS)
	}

	algo, err := core.ParseCompositeAlgo(rr.Algo)
	if err != nil {
		return nil, err
	}
	if err := algo.CheckProcs(procs); err != nil {
		return nil, err
	}
	if mode == "model" {
		if err := algo.CheckModel(); err != nil {
			return nil, err
		}
	}

	spec := &jobSpec{mode: mode, procs: procs, m: rr.M, algo: algo, image: rr.IncludeImage && mode == "real"}

	s := core.DefaultScene(n, img)
	s.Perspective = rr.Persp
	s.Shaded = rr.Shaded
	s.AzimuthDeg = rr.AzimuthDeg
	s.RenderWorkers = workers
	if rr.Step > 0 {
		s.Step = rr.Step
	}
	if rr.Seed != 0 {
		s.Seed = rr.Seed
	}
	if rr.Time != 0 {
		s.Time = rr.Time
	}
	spec.scene = s
	return spec, nil
}
