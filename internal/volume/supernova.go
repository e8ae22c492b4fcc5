package volume

import (
	"fmt"
	"math"

	"bgpvr/internal/grid"
	"bgpvr/internal/scratch"
)

// Supernova is an analytic stand-in for the VH-1 core-collapse supernova
// dataset (Blondin et al.) visualized in the paper. It models the X
// component of velocity in a standing-accretion-shock flow:
//
//   - a spherical accretion shock whose radius is perturbed by low-order
//     modes (the SASI "sloshing" the simulation studies),
//   - infall outside the shock and turbulent convection inside it,
//   - deterministic multi-octave gradient-ish noise for the turbulence,
//     evaluable independently at any point (no stored state), so blocks
//     of any resolution can be generated exactly in parallel.
//
// Values are scaled to [0, 1] with 0.5 = zero velocity, as the raw files
// in this repo store normalized scalars.
type Supernova struct {
	// Seed varies the turbulence phases; the same seed always produces
	// the same field.
	Seed int64
	// Time selects the SASI phase, standing in for the paper's
	// "time step 1530".
	Time float64
}

// Var identifies one of the five VH-1 variables stored per time step.
type Var int

// The five variables of a VH-1 time step, in file order (Fig 8 of the
// paper names pressure, density and the three velocity components).
const (
	VarPressure Var = iota
	VarDensity
	VarVelocityX
	VarVelocityY
	VarVelocityZ
	NumVars = 5
)

// Name returns the netCDF variable name used in files.
func (v Var) Name() string {
	switch v {
	case VarPressure:
		return "pressure"
	case VarDensity:
		return "density"
	case VarVelocityX:
		return "velocity_x"
	case VarVelocityY:
		return "velocity_y"
	default:
		return "velocity_z"
	}
}

// hash64 is a splitmix64-style scrambler used to derive deterministic
// per-octave phases.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s Supernova) phase(octave, k int) float64 {
	h := hash64(uint64(s.Seed)*1315423911 + uint64(octave)*2654435761 + uint64(k))
	return 2 * math.Pi * float64(h%1_000_003) / 1_000_003
}

// plan is what evaluating one variable of one Supernova needs that does
// not depend on the point: the SASI mode amplitudes and the turbulence
// ladder (frequency, amplitude and three phases per octave).
type plan struct {
	v          Var
	sinT, cosT float64    // sin(Time), cos(0.7·Time)
	freq, amp  [4]float64 // per turbulence octave
	phase      [4][3]float64
	norm       float64 // sum of amp
}

func (s Supernova) plan(v Var) plan {
	p := plan{v: v, sinT: math.Sin(s.Time), cosT: math.Cos(0.7 * s.Time)}
	freq, amp := 3.0, 1.0
	for o := range p.phase {
		for k := range p.phase[o] {
			p.phase[o][k] = s.phase(o, int(v)*4+k)
		}
		p.freq[o], p.amp[o] = freq, amp
		p.norm += amp
		freq *= 2.1
		amp *= 0.55
	}
	return p
}

// rotate turns the lattice between octaves so axes do not align.
func rotate(x, y, z float64) (float64, float64, float64) {
	return 0.8*y + 0.6*z, 0.8*z + 0.6*x, 0.8*x + 0.6*y
}

// octave is octave o's term of the turbulence at that octave's
// coordinates: a product of phase-shifted sines.
func (p *plan) octave(o int, x, y, z float64) float64 {
	f, ph := p.freq[o], &p.phase[o]
	return math.Sin(f*x+ph[0]) * math.Sin(f*y+ph[1]) * math.Sin(f*z+ph[2])
}

// turbulence is a smooth pseudo-random field in roughly [-1, 1]: the
// amplitude-weighted mean of the octaves, the lattice rotated between
// them.
func (p *plan) turbulence(x, y, z float64) float64 {
	var sum float64
	for o, amp := range p.amp {
		sum += amp * p.octave(o, x, y, z)
		x, y, z = rotate(x, y, z)
	}
	return sum / p.norm
}

// value is the plan's variable at normalized (x, y, z), in [0, 1], given
// the turbulence there.
func (p *plan) value(x, y, z, turb float64) float64 {
	r := math.Sqrt(x*x + y*y + z*z)
	if r < 1e-12 {
		r = 1e-12
	}
	uz := z / r

	// Perturbed shock radius: base + l=1 sloshing mode (SASI) + l=2 mode.
	slosh := 0.10 * p.sinT * uz
	quad := 0.05 * p.cosT * (3*uz*uz - 1) / 2
	shock := 0.72 + slosh + quad

	// Smooth blend across the shock front.
	inside := 0.5 * (1 - math.Tanh((r-shock)/0.035))

	var raw float64
	switch p.v {
	case VarPressure:
		// High central pressure decaying outward, jump at the shock.
		raw = 2.2*math.Exp(-3*r) + 0.9*inside + 0.15*inside*turb
		raw = raw/3.3*2 - 1 // to roughly [-1, 1]
	case VarDensity:
		raw = 1.8*math.Exp(-2.2*r) + 0.7*inside + 0.2*inside*turb
		raw = raw/2.7*2 - 1
	default:
		// Velocity: supersonic infall outside the shock (radial, toward
		// the center), turbulent convection inside.
		u := [3]float64{x, y, z}[p.v-VarVelocityX] / r // radial unit vector's component
		infall := -0.85 * u * math.Min(1, (r-shock)/0.25+1)
		turb += 0.35 * p.sinT * u
		raw = inside*turb + (1-inside)*infall
	}
	if raw > 1 {
		raw = 1
	}
	if raw < -1 {
		raw = -1
	}
	return 0.5 * (raw + 1)
}

// EvalNorm evaluates variable v at normalized coordinates in [-1, 1]^3
// (the volume cube), returning a value in [0, 1]. It is the pointwise
// definition of the dataset; Generate computes the same bits by rows.
func (s Supernova) EvalNorm(v Var, x, y, z float64) float64 {
	p := s.plan(v)
	return p.value(x, y, z, p.turbulence(x, y, z))
}

// coord is the normalized coordinate of lattice index i on an n-sample
// axis: [0, n-1] onto [-1, 1], a one-sample axis at the centre.
func coord(i, n int) float64 {
	if n == 1 {
		return 0
	}
	return 2*float64(i)/float64(n-1) - 1
}

// Eval evaluates variable v at global lattice point (x, y, z) of a
// dims-sized grid.
func (s Supernova) Eval(v Var, dims grid.IVec3, x, y, z int) float32 {
	return float32(s.EvalNorm(v, coord(x, dims.X), coord(y, dims.Y), coord(z, dims.Z)))
}

// rowTables recycles the row kernel's tables across calls: a frame
// generates one small block per rank, and a table set per call would
// outnumber the fields.
var rowTables = scratch.Pool[float64]{Poison: math.NaN()}

// Generate fills a new field covering ext of a dims grid with variable
// v: bit for bit Eval at every lattice point of ext, computed by rows.
func (s Supernova) Generate(v Var, dims grid.IVec3, ext grid.Extent) *Field {
	f := NewField(dims, ext)
	s.Fill(f, v)
	return f
}

// Fill overwrites every sample of f with variable v, as Generate does
// for a field of its own.
func (s Supernova) Fill(f *Field, v Var) {
	p := s.plan(v)
	fillRows(f.Data, &p, f.Dims, f.Ext)
}

// Turbulence is the half of one variable of a block that does not
// depend on Time: at every lattice point of the extent, X fastest, the
// float64 turbulence that the row kernel hands to the shock term. A
// caller rendering many steps of one seed keeps it and regenerates a
// step with FillFrom. It is immutable once built.
type Turbulence struct {
	seed int64
	v    Var
	dims grid.IVec3
	ext  grid.Extent
	data []float64
}

// Bytes is the table's resident size, 8 bytes a voxel.
func (t *Turbulence) Bytes() int64 { return 8 * int64(len(t.data)) }

// Turbulence builds variable v's turbulence table over ext of a dims
// grid: the first half of the row kernel alone.
func (s Supernova) Turbulence(v Var, dims grid.IVec3, ext grid.Extent) *Turbulence {
	t := &Turbulence{seed: s.Seed, v: v, dims: dims, ext: ext, data: make([]float64, ext.Count())}
	if len(t.data) == 0 {
		return t
	}
	p := s.plan(v)
	k := newRowKernel(&p, dims, ext)
	defer k.release()
	n := ext.Size()
	for r := 0; r < n.Y*n.Z; r++ {
		k.turbulence(&p, r, t.data[r*n.X:][:n.X])
	}
	return t
}

// FillFrom overwrites every sample of f with variable v computed from
// t, this seed's turbulence of v over f's extent: bit for bit what Fill
// writes, for the cost of the Time-dependent half alone.
func (s Supernova) FillFrom(f *Field, v Var, t *Turbulence) {
	if t.seed != s.Seed || t.v != v || t.dims != f.Dims || t.ext != f.Ext {
		panic(fmt.Sprintf("volume: turbulence of seed %d %s over %v of %v cannot fill seed %d %s over %v of %v",
			t.seed, t.v.Name(), t.ext, t.dims, s.Seed, v.Name(), f.Ext, f.Dims))
	}
	p := s.plan(v)
	fillFrom(f.Data, &p, t)
}

// The row kernel computes a block a row at a time in two halves, each
// with one body: rowKernel.turbulence, which does not depend on Time,
// and valueRow, the shock term, which does. fillRows runs both through
// a pooled row buffer; Turbulence keeps the first half's rows and
// FillFrom runs the second over them. The turbulence crosses between
// the halves as the float64 the pointwise definition computes, and every
// sum and product keeps Eval's operand order, so all three are Eval bit
// for bit. (The float64 instances are the tests': rounding to float32
// would hide a reordered product.)

// fillRows writes the plan's variable at the lattice points of ext into
// out, X fastest.
func fillRows[T float32 | float64](out []T, p *plan, dims grid.IVec3, ext grid.Extent) {
	if len(out) == 0 {
		return
	}
	k := newRowKernel(p, dims, ext)
	defer k.release()
	n := ext.Size()
	for r := 0; r < n.Y*n.Z; r++ {
		k.turbulence(p, r, k.row)
		valueRow(out[r*n.X:][:n.X], p, k.c[0], k.c[1][r%n.Y], k.c[2][r/n.Y], k.row)
	}
}

// fillFrom writes the plan's variable at the lattice points of t's
// extent into out, X fastest, from t's turbulence.
func fillFrom[T float32 | float64](out []T, p *plan, t *Turbulence) {
	if len(out) == 0 {
		return
	}
	n := t.ext.Size()
	cx := rowTables.Get(n.X)
	defer rowTables.Put(cx)
	for i := range cx {
		cx[i] = coord(t.ext.Lo.X+i, t.dims.X)
	}
	for r := 0; r < n.Y*n.Z; r++ {
		y, z := coord(t.ext.Lo.Y+r%n.Y, t.dims.Y), coord(t.ext.Lo.Z+r/n.Y, t.dims.Z)
		valueRow(out[r*n.X:][:n.X], p, cx, y, z, t.data[r*n.X:][:n.X])
	}
}

// valueRow is the row kernel's Time-dependent half: out[i] is the
// plan's variable at (cx[i], y, z), where the turbulence is turb[i].
func valueRow[T float32 | float64](out []T, p *plan, cx []float64, y, z float64, turb []float64) {
	cx, turb = cx[:len(out)], turb[:len(out)]
	for i, x := range cx {
		out[i] = T(p.value(x, y, z, turb[i]))
	}
}

// rowKernel is the row kernel's turbulence half over one extent. Of the
// 12 turbulence sines of a point, octave 0's depend on one coordinate
// each and octave 1's on (y,z), (z,x) and (x,y), so they come from
// tables and a per-row scalar; octaves 2-3 stay per voxel.
// (The plan is the methods' argument, not a field: the pool takes the
// tables back, so whatever the kernel points to escapes with them.)
type rowKernel struct {
	n grid.IVec3
	// Per axis: the extent's normalized coordinates, octave 0's sine of each.
	c, s0 [3][]float64
	// Per extent, by (x, y): octave 1's z coordinate and its sine.
	z1s, sz1s []float64
	// Per plane, by x: octave 1's y coordinate and its sine.
	y1, sy1 []float64
	// row is a row's worth of scratch for a caller that keeps no table.
	row    []float64
	tables []float64 // the pooled memory all of the above share
}

func newRowKernel(p *plan, dims grid.IVec3, ext grid.Extent) rowKernel {
	n := ext.Size()
	k := rowKernel{n: n, tables: rowTables.Get(2*(n.X+n.Y+n.Z) + 3*n.X + 2*n.X*n.Y)}
	rest := k.tables
	take := func(m int) []float64 {
		s := rest[:m:m]
		rest = rest[m:]
		return s
	}
	for a := range k.c {
		k.c[a], k.s0[a] = take(n.Comp(a)), take(n.Comp(a))
		for i := range k.c[a] {
			k.c[a][i] = coord(ext.Lo.Comp(a)+i, dims.Comp(a))
			k.s0[a][i] = math.Sin(p.freq[0]*k.c[a][i] + p.phase[0][a])
		}
	}
	f1, ph1 := p.freq[1], &p.phase[1]
	k.z1s, k.sz1s = take(n.X*n.Y), take(n.X*n.Y)
	for j, y := range k.c[1] {
		for i, x := range k.c[0] {
			k.z1s[j*n.X+i] = 0.8*x + 0.6*y
			k.sz1s[j*n.X+i] = math.Sin(f1*k.z1s[j*n.X+i] + ph1[2])
		}
	}
	k.y1, k.sy1, k.row = take(n.X), take(n.X), take(n.X)
	return k
}

func (k *rowKernel) release() { rowTables.Put(k.tables) }

// turbulence writes the turbulence at row r of the extent (Y fastest,
// then Z) into turb. Rows go in order from 0: a plane's first row fills
// the per-plane tables.
func (k *rowKernel) turbulence(p *plan, r int, turb []float64) {
	nx := k.n.X
	j, kz := r%k.n.Y, r/k.n.Y
	y, z := k.c[1][j], k.c[2][kz]
	f1, ph1 := p.freq[1], &p.phase[1]
	y1, sy1 := k.y1[:nx], k.sy1[:nx]
	if j == 0 {
		for i, x := range k.c[0] {
			y1[i] = 0.8*z + 0.6*x
			sy1[i] = math.Sin(f1*y1[i] + ph1[1])
		}
	}
	x1 := 0.8*y + 0.6*z
	sx1 := math.Sin(f1*x1 + ph1[0])
	z1, sz1 := k.z1s[j*nx:][:nx], k.sz1s[j*nx:][:nx]
	sx0, sy0, sz0 := k.s0[0][:nx], k.s0[1][j], k.s0[2][kz]
	for i := range turb[:nx] {
		sum := 0.0
		sum += p.amp[0] * (sx0[i] * sy0 * sz0)
		sum += p.amp[1] * (sx1 * sy1[i] * sz1[i])
		x2, y2, z2 := rotate(x1, y1[i], z1[i])
		sum += p.amp[2] * p.octave(2, x2, y2, z2)
		x3, y3, z3 := rotate(x2, y2, z2)
		sum += p.amp[3] * p.octave(3, x3, y3, z3)
		turb[i] = sum / p.norm
	}
}

// GenerateFull fills the whole dims grid with variable v.
func (s Supernova) GenerateFull(v Var, dims grid.IVec3) *Field {
	return s.Generate(v, dims, grid.WholeGrid(dims))
}
