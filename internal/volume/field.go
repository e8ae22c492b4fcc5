// Package volume provides scalar-field storage and sampling, transfer
// functions, and a synthetic core-collapse-supernova-like dataset that
// stands in for the VH-1 data used in the paper (which is not publicly
// redistributable at the sizes studied). The synthetic field is analytic
// and deterministic, so any block of any resolution can be generated
// independently, in parallel, exactly — the property the experiments
// need.
package volume

import (
	"math"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/scratch"
)

// Field is a block of node-centered scalar samples. Values live on the
// integer lattice points of the global grid; the block stores lattice
// points Ext.Lo <= p < Ext.Hi (Ext typically includes ghost layers so
// that trilinear interpolation is exact up to the block's owned
// boundary). World coordinates coincide with lattice coordinates: the
// whole volume spans [0, Dims-1] on each axis.
type Field struct {
	Dims grid.IVec3 // global grid size
	Ext  grid.Extent
	Data []float32 // len == Ext.Count(), X fastest within the extent
}

// NewField allocates a zero-filled field covering ext of a dims grid.
func NewField(dims grid.IVec3, ext grid.Extent) *Field {
	return &Field{Dims: dims, Ext: ext, Data: make([]float32, ext.Count())}
}

// fieldData recycles the samples of fields whose owner releases them.
var fieldData = scratch.Pool[float32]{Poison: float32(math.NaN())}

// NewScratchField is NewField on recycled memory: the samples are
// unspecified until the taker has written every one, and the field's
// last user hands them back with Release.
func NewScratchField(dims grid.IVec3, ext grid.Extent) *Field {
	return &Field{Dims: dims, Ext: ext, Data: fieldData.Get(int(ext.Count()))}
}

// Release recycles the field's samples; the field, and every Sampler
// made of it, must not be used again. Only a field's sole owner may
// release it — never one a cache holds or the caller supplied.
func (f *Field) Release() {
	fieldData.Put(f.Data)
	f.Data = nil
}

// index converts global lattice coordinates to a position in Data.
// The caller must ensure the point is within Ext.
func (f *Field) index(x, y, z int) int64 {
	s := f.Ext.Size()
	return (int64(z-f.Ext.Lo.Z)*int64(s.Y)+int64(y-f.Ext.Lo.Y))*int64(s.X) + int64(x-f.Ext.Lo.X)
}

// At returns the sample at global lattice point (x, y, z).
func (f *Field) At(x, y, z int) float32 { return f.Data[f.index(x, y, z)] }

// Set stores the sample at global lattice point (x, y, z).
func (f *Field) Set(x, y, z int, v float32) { f.Data[f.index(x, y, z)] = v }

// Bounds returns the world-space axis-aligned box over which Sample is
// defined for this field: [Ext.Lo, Ext.Hi-1] on each axis.
func (f *Field) Bounds() geom.AABB {
	return geom.Box(
		geom.V(float64(f.Ext.Lo.X), float64(f.Ext.Lo.Y), float64(f.Ext.Lo.Z)),
		geom.V(float64(f.Ext.Hi.X-1), float64(f.Ext.Hi.Y-1), float64(f.Ext.Hi.Z-1)),
	)
}

// Sample returns the trilinearly interpolated value at world point p,
// and ok=false when p lies outside the field's bounds. Callers that
// sample one field many times build its Sampler once instead.
func (f *Field) Sample(p geom.Vec3) (float64, bool) {
	var s Sampler
	s.init(f)
	return s.Sample(p)
}

// Sampler is a Field prepared for repeated trilinear sampling: what
// Sample needs of the field that does not depend on the point — the
// float bounds, the upper clamp of the base cell, and the offsets in
// Data of the cell's eight corners — worked out once. It is a value with
// no pointer back to the Field; it stays valid while the field's Data
// and extent do.
type Sampler struct {
	data []float32
	// Sample is defined on [Ext.Lo, Ext.Hi-1] per axis. (Not Bounds(),
	// which orders its corners and would make an empty extent sampleable.)
	bounds geom.AABB
	// The base cell's upper clamp, max(Ext.Hi-2, Ext.Lo) per axis: a
	// point exactly on the upper boundary interpolates within the last
	// cell, and a single-plane axis (Hi-2 < Lo) lands on its one plane.
	// A point that Contains needs no lower clamp: its truncation is never
	// below Ext.Lo.
	top grid.IVec3
	// Data index of lattice point (x, y, z) is base + x + y*sy + z*sz.
	base, sy, sz int
	// Offsets of the +1 neighbour along each axis; 0 on a single-plane
	// axis, which therefore interpolates flat.
	dx, dy, dz int
}

// Sampler returns the field's sampler.
func (f *Field) Sampler() Sampler {
	var s Sampler
	s.init(f)
	return s
}

// init fills s in place (Field.Sample builds a sampler per call, and
// returning one by value costs a copy of it).
func (s *Sampler) init(f *Field) {
	lo, hi, n := f.Ext.Lo, f.Ext.Hi, f.Ext.Size()
	s.data = f.Data
	s.bounds = geom.AABB{
		Min: geom.V(float64(lo.X), float64(lo.Y), float64(lo.Z)),
		Max: geom.V(float64(hi.X-1), float64(hi.Y-1), float64(hi.Z-1)),
	}
	s.top = grid.IVec3{X: max(hi.X-2, lo.X), Y: max(hi.Y-2, lo.Y), Z: max(hi.Z-2, lo.Z)}
	s.sy = n.X
	s.sz = n.X * n.Y
	s.base = -(lo.X + lo.Y*s.sy + lo.Z*s.sz)
	if n.X > 1 {
		s.dx = 1
	}
	if n.Y > 1 {
		s.dy = s.sy
	}
	if n.Z > 1 {
		s.dz = s.sz
	}
}

// Contains reports whether Sample is defined at p.
func (s *Sampler) Contains(p geom.Vec3) bool { return s.bounds.Contains(p) }

// Sample is Field.Sample.
func (s *Sampler) Sample(p geom.Vec3) (float64, bool) {
	if !s.Contains(p) {
		return 0, false
	}
	return s.Interp(p), true
}

// Interp returns the trilinearly interpolated value at p, which the
// caller has established Contains: InterpRay's one-point case. Its ray
// is p itself, along the direction (−0, −0, −0): p + (−0)·(0·0) adds −0
// to each coordinate, which leaves every value as it is, ±0 included (a
// +0 direction would turn a −0 coordinate into +0).
func (s *Sampler) Interp(p geom.Vec3) float64 {
	var out [1]float64
	s.InterpRay(p, negZeroDir, 0, 0, out[:])
	return out[0]
}

// negZeroDir is Interp's direction.
var negZeroDir = geom.V(math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1))

// InterpRay sets out[i] to the trilinearly interpolated value at
// o + d·(float64(k0+i)·step), the operands of Ray.At(float64(k0+i)·step)
// in their order, for samples the caller has established Contains. (Origin
// and direction apart: a Ray is too wide for the compiler to keep in
// registers.) It is the one trilinear body: eight loads and seven float64
// lerps whose order is frozen, because the parallel == serial pixel
// identity and the renderer's golden hashes rest on every process
// computing each sample's bits the same way. The loop makes no call: Go's
// register ABI has no callee-saved float registers, so a call per sample
// would spill and reload the ray around it. No iteration reads what
// another wrote, so the processor overlaps the samples' convert → index →
// load → lerp chains instead of waiting on one sample's; keep it that way.
func (s *Sampler) InterpRay(o, d geom.Vec3, step float64, k0 int64, out []float64) {
	for i := range out {
		p := o.Add(d.Mul(float64(k0+int64(i)) * step))
		x0, y0, z0 := min(int(p.X), s.top.X), min(int(p.Y), s.top.Y), min(int(p.Z), s.top.Z)
		wx := p.X - float64(x0)
		wy := p.Y - float64(y0)
		wz := p.Z - float64(z0)

		near := s.base + x0 + y0*s.sy + z0*s.sz
		far := near + s.dz
		data := s.data
		c000 := float64(data[near])
		c100 := float64(data[near+s.dx])
		c010 := float64(data[near+s.dy])
		c110 := float64(data[near+s.dy+s.dx])
		c001 := float64(data[far])
		c101 := float64(data[far+s.dx])
		c011 := float64(data[far+s.dy])
		c111 := float64(data[far+s.dy+s.dx])

		c00 := c000*(1-wx) + c100*wx
		c10 := c010*(1-wx) + c110*wx
		c01 := c001*(1-wx) + c101*wx
		c11 := c011*(1-wx) + c111*wx
		c0 := c00*(1-wy) + c10*wy
		c1 := c01*(1-wy) + c11*wy
		out[i] = c0*(1-wz) + c1*wz
	}
}

// Fill evaluates fn at every lattice point of the field's extent.
func (f *Field) Fill(fn func(x, y, z int) float32) {
	i := 0
	for z := f.Ext.Lo.Z; z < f.Ext.Hi.Z; z++ {
		for y := f.Ext.Lo.Y; y < f.Ext.Hi.Y; y++ {
			for x := f.Ext.Lo.X; x < f.Ext.Hi.X; x++ {
				f.Data[i] = fn(x, y, z)
				i++
			}
		}
	}
}

// SubfieldFrom copies the overlapping region of src into f. It is used
// to extract a block (with ghost) from a full-volume field, or to merge
// received halo data.
func (f *Field) SubfieldFrom(src *Field) {
	ov := f.Ext.Intersect(src.Ext)
	if ov.Empty() {
		return
	}
	for z := ov.Lo.Z; z < ov.Hi.Z; z++ {
		for y := ov.Lo.Y; y < ov.Hi.Y; y++ {
			si := src.index(ov.Lo.X, y, z)
			di := f.index(ov.Lo.X, y, z)
			copy(f.Data[di:di+int64(ov.Size().X)], src.Data[si:si+int64(ov.Size().X)])
		}
	}
}
