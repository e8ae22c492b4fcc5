package core

import (
	"context"

	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

// ctxKey is the private key space for core's context values.
type ctxKey int

const requestIDKey ctxKey = iota

// WithRequestID returns a context carrying a request identifier. The
// render service stamps each incoming request with one; RunReal and
// RunModel note it in the flight ring so post-mortems and traces can
// be tied back to the request that caused them.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the request identifier carried by ctx, or ""
// when none was attached.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// TurbulenceKey identifies a block's turbulence table: everything that
// determines Supernova().Turbulence for one block extent, which is a
// FieldKey without Time.
type TurbulenceKey struct {
	Variable volume.Var
	Dims     grid.IVec3
	Ext      grid.Extent
	Seed     int64
}

// FieldKey identifies a synthesized block field: everything that
// determines the bytes of Supernova().Generate for one block extent.
// It is comparable, so it works directly as a map key.
type FieldKey struct {
	TurbulenceKey
	Time float64
}

// FieldCache lets a long-lived caller (the render service) reuse
// generated block fields across frames, and the Time-independent
// turbulence tables a new step's fields are built from. Get returns the
// cached field for key or, on a miss, calls generate, stores the
// result, and returns it; Turbulence does the same for a table.
// Implementations must be safe for concurrent use and must treat what
// they hold as immutable (renderers only read fields, FillFrom only
// tables). A nil FieldCache in RealConfig disables caching entirely.
type FieldCache interface {
	Get(key FieldKey, generate func() *volume.Field) *volume.Field
	Turbulence(key TurbulenceKey, build func() *volume.Turbulence) *volume.Turbulence
}
