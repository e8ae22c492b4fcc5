// Package core assembles the paper's end-to-end pipeline from the
// substrate packages: collective I/O of a block-decomposed time step,
// parallel ray-casting of the blocks, and direct-send compositing, with
// the frame time split into the three stage times the paper reports.
//
// The pipeline exists in two modes sharing the same planning code:
//
//   - RunReal executes everything — goroutine ranks, real files, real
//     pixels — at laptop scale. It is the correctness anchor: its image
//     must equal the serial rendering.
//   - RunModel computes virtual stage times at full paper scale (up to
//     32K cores, 4480^3 volumes) from the machine model: the mpiio plan
//     feeds the storage model, per-block sample counts feed the
//     calibrated rendering cost, and the direct-send message schedule
//     feeds the torus contention model.
package core

import (
	"fmt"
	"math"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/render"
	"bgpvr/internal/volume"
)

// Scene describes what is rendered: the volume, the image, the camera,
// and the transfer function.
type Scene struct {
	Dims     grid.IVec3
	ImageW   int
	ImageH   int
	Variable volume.Var
	Seed     int64
	Time     float64
	Step     float64 // sampling step in voxels
	// Perspective selects the perspective camera; the default is the
	// slightly tilted orthographic view used by the experiments.
	Perspective bool
	// Shaded enables gradient (Lambertian) shading; blocks then carry
	// two ghost layers instead of one.
	Shaded bool
	// AzimuthDeg rotates the view direction (and perspective eye) about
	// the volume's vertical axis — the knob orbit animations turn.
	AzimuthDeg float64
	// RenderWorkers is the scanline-tile pool width each rank's
	// ray-casting uses (0 or 1 = serial, as in render.Config.Workers);
	// it reaches the renderers via RenderConfig. Output is bit-identical
	// at every width.
	RenderWorkers int
}

// DefaultScene returns the standard experiment scene: an n^3 volume of
// the synthetic supernova's X velocity, viewed slightly off-axis so no
// block boundary aligns with the sample grid.
func DefaultScene(n, imgSize int) Scene {
	return Scene{
		Dims:     grid.Cube(n),
		ImageW:   imgSize,
		ImageH:   imgSize,
		Variable: volume.VarVelocityX,
		Seed:     1530, // the paper's time step number, as a nod
		Time:     1.1,
		Step:     1.0,
	}
}

// PaperScene returns the model-mode scene for one of the paper's three
// problem sizes: 1120^3/1600^2, 2240^3/2048^2, 4480^3/4096^2.
func PaperScene(n int) (Scene, error) {
	imgSize := map[int]int{1120: 1600, 2240: 2048, 4480: 4096}[n]
	if imgSize == 0 {
		return Scene{}, fmt.Errorf("core: no paper configuration for %d^3", n)
	}
	return DefaultScene(n, imgSize), nil
}

// Camera builds the scene's camera.
func (s Scene) Camera() render.Camera {
	c := geom.V(float64(s.Dims.X-1)/2, float64(s.Dims.Y-1)/2, float64(s.Dims.Z-1)/2)
	if s.Perspective {
		off := s.rotateY(geom.V(float64(s.Dims.X)*1.1, -float64(s.Dims.Y)*0.6, float64(s.Dims.Z)*1.4))
		return render.NewPersp(c.Add(off), c, geom.V(0, 1, 0), 45, s.ImageW, s.ImageH)
	}
	// Off-axis direction: avoids sample/boundary degeneracy and gives
	// every block a nontrivial projection.
	dir := s.rotateY(geom.V(0.35, -0.25, -1))
	side := float64(max(s.Dims.X, max(s.Dims.Y, s.Dims.Z))) * 1.9
	return render.NewOrtho(c, dir, geom.V(0, 1, 0), side, side, s.ImageW, s.ImageH)
}

// rotateY applies the scene azimuth to a view-space vector.
func (s Scene) rotateY(v geom.Vec3) geom.Vec3 {
	if s.AzimuthDeg == 0 {
		return v
	}
	a := s.AzimuthDeg * math.Pi / 180
	sin, cos := math.Sin(a), math.Cos(a)
	return geom.V(v.X*cos+v.Z*sin, v.Y, -v.X*sin+v.Z*cos)
}

// Eye returns the viewpoint used for visibility ordering.
func (s Scene) Eye() geom.Vec3 {
	switch cam := s.Camera().(type) {
	case *render.Ortho:
		return cam.Eye()
	case *render.Persp:
		return cam.Eye()
	}
	panic("core: unknown camera type")
}

// Supernova returns the scene's synthetic dataset generator.
func (s Scene) Supernova() volume.Supernova {
	return volume.Supernova{Seed: s.Seed, Time: s.Time}
}

// Transfer returns the transfer function used by the experiments.
func (s Scene) Transfer() *volume.Transfer { return volume.SupernovaTransfer() }

// RenderConfig returns the sampling configuration.
func (s Scene) RenderConfig() render.Config {
	step := s.Step
	if step <= 0 {
		step = 1
	}
	return render.Config{Step: step, Shade: render.Shading{Enabled: s.Shaded},
		Workers: s.RenderWorkers}
}

// FrontToBack returns the block visibility order for p blocks.
func (s Scene) FrontToBack(d grid.Decomp) []int {
	e := s.Eye()
	return d.FrontToBack([3]float64{e.X, e.Y, e.Z})
}

// StageTimes is the frame-time breakdown the paper reports, in
// seconds. In real mode each column runs from the last rank's end of the
// stage before to the last rank's end of its own (the first from the
// last rank's start), so the columns add up to Total even though no
// barrier separates the ranks' stages. Model mode's Total also charges
// the two stage barriers the paper's frame ran.
type StageTimes struct {
	IO        float64
	Render    float64
	Composite float64
	Total     float64
}

// Percent returns a stage's share of the total in percent.
func Percent(part, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * part / total
}
