// Package serve implements the persistent render service: a long-lived
// HTTP frontend that schedules render requests over the in-process rank
// runtime with admission control, reuses generated volumes across
// requests, and makes every request observable
// (request IDs, RED metrics, per-request perf reports, latency
// quantiles).
package serve

import (
	"container/list"
	"sync"

	"bgpvr/internal/core"
	"bgpvr/internal/obs"
	"bgpvr/internal/volume"
)

// fieldCache is a byte-bounded LRU over synthesized block fields and
// the turbulence tables new steps' fields are built from, satisfying
// core.FieldCache. Both kinds share one recency list and one budget,
// each entry counting its own bytes (4 a voxel for a field, 8 for a
// table). Building happens outside the lock, so concurrent misses for
// different blocks proceed in parallel; concurrent misses for the same
// key may build twice, but exactly one result is kept and every caller
// shares the stored pointer.
type fieldCache struct {
	mu     sync.Mutex
	capB   int64
	ll     *list.List // front = most recently used; values are *cacheEntry
	fields map[core.FieldKey]*list.Element
	turbs  map[core.TurbulenceKey]*list.Element
	// Bytes held, by kind.
	fieldB, turbB int64

	hits, misses         *obs.Counter // fields
	turbHits, turbMisses *obs.Counter
}

// cacheEntry is one field or one turbulence table; the other is nil.
type cacheEntry struct {
	key core.FieldKey // a table's Time is unused
	f   *volume.Field
	t   *volume.Turbulence
}

// account adds e's bytes to its kind's total (sign 1) or takes them
// away (sign -1).
func (c *fieldCache) account(e *cacheEntry, sign int64) {
	if e.t != nil {
		c.turbB += sign * e.t.Bytes()
	} else {
		c.fieldB += sign * 4 * int64(len(e.f.Data))
	}
}

func newFieldCache(capBytes int64, hits, misses *obs.CounterVec) *fieldCache {
	return &fieldCache{capB: capBytes, ll: list.New(),
		fields: map[core.FieldKey]*list.Element{}, turbs: map[core.TurbulenceKey]*list.Element{},
		hits: hits.With(obs.Labels("cache", "field")), misses: misses.With(obs.Labels("cache", "field")),
		turbHits:   hits.With(obs.Labels("cache", "turbulence")),
		turbMisses: misses.With(obs.Labels("cache", "turbulence")),
	}
}

// Get implements core.FieldCache.
func (c *fieldCache) Get(key core.FieldKey, generate func() *volume.Field) *volume.Field {
	if e := lookup(c, c.fields, key, c.hits); e != nil {
		return e.f
	}
	f := generate()
	c.misses.Inc()
	return keep(c, c.fields, key, &cacheEntry{key: key, f: f}).f
}

// Turbulence implements core.FieldCache.
func (c *fieldCache) Turbulence(key core.TurbulenceKey, build func() *volume.Turbulence) *volume.Turbulence {
	if e := lookup(c, c.turbs, key, c.turbHits); e != nil {
		return e.t
	}
	t := build()
	c.turbMisses.Inc()
	return keep(c, c.turbs, key, &cacheEntry{key: core.FieldKey{TurbulenceKey: key}, t: t}).t
}

// lookup returns the entry m holds for key, now the most recently
// used, or nil.
func lookup[K comparable](c *fieldCache, m map[K]*list.Element, key K, hits *obs.Counter) *cacheEntry {
	c.mu.Lock()
	el, ok := m[key]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()
	hits.Inc()
	return e
}

// keep stores e under key in m and evicts from the back until the
// budget holds. If a same-key race stored an entry first, that one is
// returned instead, so every caller shares one pointer.
func keep[K comparable](c *fieldCache, m map[K]*list.Element, key K, e *cacheEntry) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	m[key] = c.ll.PushFront(e)
	c.account(e, 1)
	for c.fieldB+c.turbB > c.capB && c.ll.Len() > 1 {
		back := c.ll.Back()
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		if old.t != nil {
			delete(c.turbs, old.key.TurbulenceKey)
		} else {
			delete(c.fields, old.key)
		}
		c.account(old, -1)
	}
	return e
}

// cacheSize is one kind's live entry count and bytes.
type cacheSize struct {
	entries int
	bytes   int64
}

// Stats returns the live entries and bytes of each kind.
func (c *fieldCache) Stats() (fields, turbs cacheSize) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheSize{len(c.fields), c.fieldB}, cacheSize{len(c.turbs), c.turbB}
}
