package compose

import (
	"fmt"
	"math/bits"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
	"bgpvr/internal/volume"
)

// pipeline runs the full parallel render+composite in real mode and
// returns the final image, given a compositing function.
type compositeFn func(c *comm.Comm, sub *render.Subimage, rects []img.Rect, w, h, m int, order []int) (*img.Image, error)

func runPipeline(t *testing.T, dims grid.IVec3, p, m, w, h int, cam render.Camera, eye geom.Vec3, fn compositeFn) *img.Image {
	t.Helper()
	sn := volume.Supernova{Seed: 21, Time: 0.6}
	tf := volume.SupernovaTransfer()
	cfg := render.Config{Step: 0.75}
	d := grid.NewDecomp(dims, p)
	order := d.FrontToBack([3]float64{eye.X, eye.Y, eye.Z})
	rects := make([]img.Rect, p)
	for r := 0; r < p; r++ {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	var final *img.Image
	world := comm.NewWorld(p)
	err := world.Run(func(c *comm.Comm) error {
		r := c.Rank()
		fld := sn.Generate(volume.VarVelocityX, dims, d.GhostExtent(r, 1))
		sub := render.RenderBlock(fld, d.BlockExtent(r), cam, tf, cfg)
		out, err := fn(c, sub, rects, w, h, m, order)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if out == nil {
				return fmt.Errorf("rank 0 got no image")
			}
			final = out
		} else if out != nil {
			return fmt.Errorf("rank %d unexpectedly got an image", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final
}

func serialReference(dims grid.IVec3, cam render.Camera) *img.Image {
	sn := volume.Supernova{Seed: 21, Time: 0.6}
	tf := volume.SupernovaTransfer()
	cfg := render.Config{Step: 0.75}
	f := sn.GenerateFull(volume.VarVelocityX, dims)
	out, _ := render.RenderFull(f, cam, tf, cfg)
	return out
}

func cameras(n, w, h int) (ortho render.Camera, orthoEye geom.Vec3, persp render.Camera, perspEye geom.Vec3) {
	c := float64(n-1) / 2
	o := render.NewOrtho(geom.V(c, c, c), geom.V(0.4, -0.3, -1), geom.V(0, 1, 0), float64(n)*1.8, float64(n)*1.8, w, h)
	eye := geom.V(c+float64(n)*1.1, c-float64(n)*0.6, c+float64(n)*1.4)
	p := render.NewPersp(eye, geom.V(c, c, c), geom.V(0, 1, 0), 45, w, h)
	return o, o.Eye(), p, eye
}

// The central correctness claim of the whole repository: the parallel
// sort-last pipeline (block rendering + direct-send compositing with any
// m <= p) reproduces the serial rendering.
func TestDirectSendMatchesSerial(t *testing.T) {
	dims := grid.Cube(18)
	const w, h = 36, 36
	ortho, orthoEye, persp, perspEye := cameras(18, w, h)
	ref := map[string]*img.Image{
		"ortho": serialReference(dims, ortho),
		"persp": serialReference(dims, persp),
	}
	for _, tc := range []struct {
		name string
		cam  render.Camera
		eye  geom.Vec3
	}{{"ortho", ortho, orthoEye}, {"persp", persp, perspEye}} {
		for _, p := range []int{1, 2, 4, 8, 12} {
			for _, m := range []int{1, 2, p} {
				if m > p {
					continue
				}
				got := runPipeline(t, dims, p, m, w, h, tc.cam, tc.eye, DirectSend)
				if d := img.MaxDiff(got, ref[tc.name]); d > 2e-5 {
					t.Errorf("%s p=%d m=%d: max diff %v", tc.name, p, m, d)
				}
			}
		}
	}
}

func TestBinarySwapMatchesSerial(t *testing.T) {
	dims := grid.Cube(16)
	const w, h = 32, 32
	ortho, orthoEye, _, _ := cameras(16, w, h)
	ref := serialReference(dims, ortho)
	for _, p := range []int{1, 2, 4, 8, 16} {
		got := runPipeline(t, dims, p, p, w, h, ortho, orthoEye,
			func(c *comm.Comm, sub *render.Subimage, rects []img.Rect, w, h, m int, order []int) (*img.Image, error) {
				return BinarySwap(c, sub, w, h, order)
			})
		if d := img.MaxDiff(got, ref); d > 2e-5 {
			t.Errorf("binary swap p=%d: max diff %v", p, d)
		}
	}
}

func TestBinarySwapRejectsNonPow2(t *testing.T) {
	w := comm.NewWorld(3)
	err := w.Run(func(c *comm.Comm) error {
		_, err := BinarySwap(c, &render.Subimage{}, 8, 8, []int{0, 1, 2})
		if err == nil {
			return fmt.Errorf("expected error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerialGatherMatchesSerial(t *testing.T) {
	dims := grid.Cube(16)
	const w, h = 32, 32
	_, _, persp, perspEye := cameras(16, w, h)
	ref := serialReference(dims, persp)
	for _, p := range []int{1, 3, 8} {
		got := runPipeline(t, dims, p, p, w, h, persp, perspEye,
			func(c *comm.Comm, sub *render.Subimage, rects []img.Rect, w, h, m int, order []int) (*img.Image, error) {
				return SerialGather(c, sub, rects, w, h, order)
			})
		if d := img.MaxDiff(got, ref); d > 2e-5 {
			t.Errorf("serial gather p=%d: max diff %v", p, d)
		}
	}
}

func TestDirectSendInvalidArgs(t *testing.T) {
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) error {
		if _, err := DirectSend(c, &render.Subimage{}, make([]img.Rect, 2), 8, 8, 3, []int{0, 1}); err == nil {
			return fmt.Errorf("m > p accepted")
		}
		if _, err := DirectSend(c, &render.Subimage{}, make([]img.Rect, 1), 8, 8, 1, []int{0, 1}); err == nil {
			return fmt.Errorf("wrong rects length accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompRankDistinctAndSpread(t *testing.T) {
	p, m := 32768, 2048
	seen := map[int]bool{}
	for i := 0; i < m; i++ {
		r := CompRank(i, m, p)
		if seen[r] {
			t.Fatalf("duplicate compositor rank %d", r)
		}
		seen[r] = true
	}
	if CompRank(0, m, p) != 0 || CompRank(m/2, m, p) != p/2 {
		t.Error("compositors should spread over the rank space")
	}
}

func TestDirectSendScheduleBytesAndCounts(t *testing.T) {
	// Two renderers splitting a 10x10 image horizontally; the 2
	// compositor tiles are the same halves (1x2 grid), so each renderer
	// messages exactly its own compositor.
	rects := []img.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 5}, {X0: 0, Y0: 5, X1: 10, Y1: 10}}
	msgs := DirectSendSchedule(rects, 10, 10, 2, PixelBytes)
	if len(msgs) != 2 {
		t.Fatalf("msgs = %+v", msgs)
	}
	var total int64
	for _, m := range msgs {
		total += m.Bytes
		if m.Bytes != 50*PixelBytes {
			t.Errorf("message bytes = %d, want %d", m.Bytes, 50*PixelBytes)
		}
	}
	if total != 100*PixelBytes {
		t.Errorf("total bytes = %d", total)
	}
	// A rect straddling both tiles sends two messages.
	msgs = DirectSendSchedule([]img.Rect{{X0: 0, Y0: 3, X1: 10, Y1: 7}}, 10, 10, 2, PixelBytes)
	if len(msgs) != 2 {
		t.Errorf("straddling rect msgs = %+v", msgs)
	}
	// A renderer whose rect lies inside one tile messages only it.
	msgs = DirectSendSchedule([]img.Rect{{X0: 0, Y0: 0, X1: 3, Y1: 3}}, 10, 10, 2, PixelBytes)
	if len(msgs) != 1 || msgs[0].Bytes != 9*PixelBytes {
		t.Errorf("single-tile rect msgs = %+v", msgs)
	}
}

// Total scheduled bytes always equal the sum of rect pixels (tiles
// partition the image).
func TestDirectSendScheduleConservesBytes(t *testing.T) {
	rects := []img.Rect{
		{X0: 0, Y0: 0, X1: 17, Y1: 13}, {X0: 5, Y0: 5, X1: 30, Y1: 30},
		{X0: 29, Y0: 0, X1: 30, Y1: 30}, {},
	}
	for _, m := range []int{1, 2, 3, 4} {
		msgs := DirectSendSchedule(rects, 30, 30, m, 1)
		var got, want int64
		for _, mm := range msgs {
			got += mm.Bytes
		}
		for _, r := range rects {
			want += int64(r.NumPixels())
		}
		if got != want {
			t.Errorf("m=%d: scheduled %d bytes, rects hold %d", m, got, want)
		}
	}
}

// The paper's O(m * n^(1/3)) message-count scaling: with blocks from a
// near-cubic decomposition, each compositor's span is touched by roughly
// a column of blocks.
func TestDirectSendScheduleMessageScaling(t *testing.T) {
	dims := grid.Cube(64)
	const w, h = 64, 64
	ortho, _, _, _ := cameras(64, w, h)
	for _, p := range []int{8, 64} {
		d := grid.NewDecomp(dims, p)
		rects := make([]img.Rect, p)
		for r := 0; r < p; r++ {
			rects[r] = render.ProjectedRect(ortho, d.BlockExtent(r))
		}
		full := DirectSendSchedule(rects, w, h, p, PixelBytes)
		limited := DirectSendSchedule(rects, w, h, max(1, p/4), PixelBytes)
		if len(limited) >= len(full) {
			t.Errorf("p=%d: limiting compositors should reduce messages: %d vs %d", p, len(limited), len(full))
		}
		// Per-message size grows when m shrinks.
		avg := func(ms []RankMessage) float64 {
			var b int64
			for _, m := range ms {
				b += m.Bytes
			}
			return float64(b) / float64(len(ms))
		}
		if avg(limited) <= avg(full) {
			t.Errorf("p=%d: fewer compositors should mean bigger messages", p)
		}
	}
}

func TestBinarySwapScheduleCounts(t *testing.T) {
	p, w, h := 16, 64, 64
	msgs, err := BinarySwapSchedule(p, w, h, PixelBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != p*bits.Len(uint(p-1)) {
		t.Errorf("message count = %d, want %d", len(msgs), p*4)
	}
	var total int64
	for _, m := range msgs {
		total += m.Bytes
	}
	want := int64(p-1) * int64(w*h) * PixelBytes
	if total != want {
		t.Errorf("total bytes = %d, want %d", total, want)
	}
	if _, err := BinarySwapSchedule(12, w, h, PixelBytes); err == nil {
		t.Error("non-pow2 accepted")
	}
}

// Direct-send with limited m and with full m produce identical images —
// the paper's optimization is purely a performance change.
func TestLimitedCompositorsIdenticalImage(t *testing.T) {
	dims := grid.Cube(16)
	const w, h = 24, 24
	ortho, orthoEye, _, _ := cameras(16, w, h)
	full := runPipeline(t, dims, 8, 8, w, h, ortho, orthoEye, DirectSend)
	limited := runPipeline(t, dims, 8, 2, w, h, ortho, orthoEye, DirectSend)
	if d := img.MaxDiff(full, limited); d != 0 {
		t.Errorf("m=8 vs m=2 differ by %v", d)
	}
}

// Blocks projecting entirely off-screen participate without deadlock and
// without corrupting the image (their rects are empty).
func TestDirectSendOffscreenBlocks(t *testing.T) {
	dims := grid.Cube(16)
	const w, h = 24, 24
	// A heavily shifted window: some blocks fall outside the image.
	c := 7.5
	cam := render.NewOrtho(geom.V(c+20, c, c), geom.V(0.4, -0.3, -1), geom.V(0, 1, 0), 20, 20, w, h)
	eye := cam.Eye()
	sn := volume.Supernova{Seed: 21, Time: 0.6}
	tf := volume.SupernovaTransfer()
	cfg := render.Config{Step: 0.75}
	d := grid.NewDecomp(dims, 8)
	order := d.FrontToBack([3]float64{eye.X, eye.Y, eye.Z})
	rects := make([]img.Rect, 8)
	empties := 0
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
		if rects[r].Empty() {
			empties++
		}
	}
	if empties == 0 {
		t.Fatal("test premise broken: no off-screen blocks")
	}
	full := sn.GenerateFull(volume.VarVelocityX, dims)
	ref, _ := render.RenderFull(full, cam, tf, cfg)
	var final *img.Image
	world := comm.NewWorld(8)
	err := world.Run(func(cm *comm.Comm) error {
		fld := sn.Generate(volume.VarVelocityX, dims, d.GhostExtent(cm.Rank(), 1))
		sub := render.RenderBlock(fld, d.BlockExtent(cm.Rank()), cam, tf, cfg)
		out, err := DirectSend(cm, sub, rects, w, h, 4, order)
		if cm.Rank() == 0 {
			final = out
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := img.MaxDiff(final, ref); diff > 2e-5 {
		t.Errorf("off-screen case differs from serial by %v", diff)
	}
}

func TestMultiBlockSchedule(t *testing.T) {
	// 4 blocks on 2 ranks round-robin: block b sent by rank b%2.
	rects := []img.Rect{
		{X0: 0, Y0: 0, X1: 5, Y1: 10}, {X0: 5, Y0: 0, X1: 10, Y1: 10},
		{X0: 0, Y0: 0, X1: 10, Y1: 5}, {},
	}
	msgs := MultiBlockSchedule(rects, 2, 10, 10, 1, 1)
	var total int64
	for _, m := range msgs {
		total += m.Bytes
		if m.Src != 0 && m.Src != 1 {
			t.Errorf("bad source %d", m.Src)
		}
	}
	var want int64
	for _, r := range rects {
		want += int64(r.NumPixels())
	}
	if total != want {
		t.Errorf("scheduled %d bytes, want %d", total, want)
	}
	// Block 2 (rank 0) and block 0 (rank 0) both send; block 3 is empty.
	srcs := map[int]int{}
	for _, m := range msgs {
		srcs[m.Src]++
	}
	if srcs[0] == 0 || srcs[1] == 0 {
		t.Errorf("both ranks should send: %v", srcs)
	}
}
