// Package cache is the serving layer's sharded, versioned hot-model store.
//
// Each entry pairs a compiled model with its walker oracle (the
// differential tests compare served answers against it). Lookups
// shard by an inline FNV-1a hash of the model name, so concurrent traffic
// to different models contends on different locks.
//
// Versions are drained by refcount, never torn: Store atomically replaces
// the entry under the shard lock and then drops only the cache's own
// reference. Requests that acquired the old version before the swap keep
// serving from it — schema, compiled table, and attached payload stay
// consistent for the whole request — and when the last holder releases,
// the version is drained: its Drained channel closes and its drain hooks
// run (the server stops the version's micro-batch flushers there).
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/infer"
	"repro/internal/tree"
)

// DefaultShards is the shard count New uses when given n <= 0.
const DefaultShards = 16

// Entry is one live (or draining) model version. An Entry returned by
// Acquire is valid until the matching Release; the embedded model and
// forest are immutable. Forest is the walker oracle — a single tree is
// a forest of one — and Model is its compiled counterpart.
type Entry struct {
	Name    string
	Version int
	Forest  *tree.Forest
	Model   infer.Compiled
	// Payload is opaque per-version state attached at Store time (the
	// server hangs the version's micro-batcher and decode indexes here).
	Payload any

	refs    atomic.Int64
	hits    atomic.Int64
	drained chan struct{}
	hooks   []func()
}

// Hits returns how many times this version was acquired for prediction.
func (e *Entry) Hits() int64 { return e.hits.Load() }

// Refs returns the current reference count (1 = only the cache holds it).
func (e *Entry) Refs() int64 { return e.refs.Load() }

// Drained is closed once the version has been replaced or deleted AND
// every in-flight holder has released it — the point after which no batch
// can touch the version again.
func (e *Entry) Drained() <-chan struct{} { return e.drained }

// OnDrain registers a hook to run at drain time. Must be called before the
// entry is stored (hooks are not synchronized afterwards).
func (e *Entry) OnDrain(f func()) { e.hooks = append(e.hooks, f) }

// Release returns a reference obtained from Acquire (or the cache's own,
// dropped by Store/Delete). The last release drains the entry.
func (e *Entry) Release() {
	if n := e.refs.Add(-1); n == 0 {
		for _, f := range e.hooks {
			f()
		}
		close(e.drained)
	} else if n < 0 {
		panic("cache: Release without matching Acquire")
	}
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// Cache is the sharded store. The zero value is not usable; call New.
type Cache struct {
	shards  []shard
	retired atomic.Int64 // versions replaced or deleted, drained or not
}

// New creates a cache with n shards (DefaultShards when n <= 0).
func New(n int) *Cache {
	if n <= 0 {
		n = DefaultShards
	}
	c := &Cache{shards: make([]shard, n)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*Entry)
	}
	return c
}

// shardOf is inline FNV-1a over the name (hash/fnv would allocate a hasher
// per lookup on this hot path).
func (c *Cache) shardOf(name string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// NewEntry builds an un-stored entry for name so the caller can attach a
// payload and drain hooks before publishing it with Store.
func (c *Cache) NewEntry(name string, f *tree.Forest, m infer.Compiled) *Entry {
	e := &Entry{Name: name, Forest: f, Model: m, drained: make(chan struct{})}
	e.refs.Store(1) // the cache's own reference, dropped on replace/delete
	return e
}

// Store publishes the entry as the newest version of its name, assigning
// Version = old version + 1 (1 for a new name), and retires any previous
// version by dropping the cache's reference to it. Returns the version.
func (c *Cache) Store(e *Entry) int {
	sh := c.shardOf(e.Name)
	sh.mu.Lock()
	old := sh.m[e.Name]
	e.Version = 1
	if old != nil {
		e.Version = old.Version + 1
	}
	sh.m[e.Name] = e
	sh.mu.Unlock()
	if old != nil {
		c.retired.Add(1)
		old.Release()
	}
	return e.Version
}

// Acquire returns the current version of name with a reference held and
// its hit counter bumped; the caller must Release it. The increment
// happens under the shard's read lock, so it cannot race a Store retiring
// the entry: an entry visible in the map always has refs >= 1.
func (c *Cache) Acquire(name string) (*Entry, bool) {
	sh := c.shardOf(name)
	sh.mu.RLock()
	e := sh.m[name]
	if e != nil {
		e.refs.Add(1)
	}
	sh.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	e.hits.Add(1)
	return e, true
}

// Delete removes name, dropping the cache's reference to its current
// version (which drains once in-flight holders finish). Reports whether a
// version existed.
func (c *Cache) Delete(name string) bool {
	sh := c.shardOf(name)
	sh.mu.Lock()
	e := sh.m[name]
	delete(sh.m, name)
	sh.mu.Unlock()
	if e == nil {
		return false
	}
	c.retired.Add(1)
	e.Release()
	return true
}

// Range calls f with a reference held on every live entry, releasing each
// after f returns. Iteration order is unspecified.
func (c *Cache) Range(f func(*Entry)) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		batch := make([]*Entry, 0, len(sh.m))
		for _, e := range sh.m {
			e.refs.Add(1)
			batch = append(batch, e)
		}
		sh.mu.RUnlock()
		for _, e := range batch {
			f(e)
			e.Release()
		}
	}
}

// Len returns the number of live model names.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Retired returns how many versions have been replaced or deleted over the
// cache's lifetime (drained or still draining).
func (c *Cache) Retired() int64 { return c.retired.Load() }
