package workspace

// result.go implements the result arena: the pooled counterpart of the
// Workspace for *result-sized* state. A Workspace recycles the graph-sized
// scratch a diffusion needs while it runs and is released the moment the run
// finishes; a Result recycles the support-sized state a finished query still
// needs while its answer is consumed — the vecFromTableInto snapshot map, the
// sweep order and prefix-conductance arrays, and the cluster member list the
// HTTP layer streams to the client. Its lifetime therefore extends past the
// kernel, through the service engine, to the response writer: whoever
// serializes the answer releases the arena after the last byte is written
// (or the client disconnects). See docs/ARCHITECTURE.md for the full
// ownership story.
//
// Unlike a Workspace, a Result is not bound to one vertex universe: every
// piece is sized by the support of the query that borrows it, so arenas from
// any pool are interchangeable. They are still pooled per graph, purely so
// that a graph's steady-state queries recycle buffers of the right
// magnitude.

import (
	"parcluster/internal/sparse"
)

// slab is one typed sub-allocating buffer of a Result: Alloc hands out
// consecutive zeroed windows of one backing array, growing it when a request
// does not fit. Windows handed out before a growth keep aliasing the old
// backing array, which stays alive exactly as long as its borrowers do.
type slab[T any] struct {
	buf []T
	off int
	// recycled is how much of buf predates this checkout — the prefix that
	// counts toward BytesRecycled when handed out again.
	recycled int
}

// alloc returns a zeroed window of n elements and the number of elements
// served from recycled (pre-checkout) storage.
func (s *slab[T]) alloc(n int) (out []T, reused int) {
	if n < 0 {
		n = 0
	}
	if cap(s.buf)-s.off < n {
		grown := 2 * cap(s.buf)
		if grown < n {
			grown = n
		}
		s.buf = make([]T, grown)
		s.off = 0
		s.recycled = 0
	}
	out = s.buf[s.off : s.off+n : s.off+n]
	clear(out)
	reused = s.recycled - s.off
	if reused > n {
		reused = n
	}
	if reused < 0 {
		reused = 0
	}
	s.off += n
	return out, reused
}

// reset rewinds the slab for the next run, keeping the backing array.
func (s *slab[T]) reset() {
	s.off = 0
	s.recycled = cap(s.buf)
}

// Result is one query's checkout of result-sized memory: a recycled
// sequential map for the diffusion-vector snapshot, typed slabs for the
// sweep's order/cut/volume/conductance arrays, and a recycled concurrent
// rank table. It is owned by a single goroutine between AcquireResult (or
// NewResult) and Release and is not safe for concurrent use.
//
// Everything handed out by a Result is valid until the next Reset or
// Release, whichever comes first; after that the memory is recycled and must
// not be read. The service layer enforces this by copying anything it caches
// (see internal/service cache.go) and releasing only after the response
// write completes.
type Result struct {
	pool  *Pool // nil for unpooled (NewResult) results
	inUse bool

	vec *sparse.Map // recycled snapshot map; cleared between checkouts
	// vecRecycled is the entry count the map held at the last release — the
	// storage a reuse gets for free.
	vecRecycled int

	rank *sparse.ConcurrentMap // recycled sweep rank table

	u32  slab[uint32]
	f64  slab[float64]
	i64  slab[int64]
	u64  slab[uint64]
	ints slab[int]
}

// NewResult returns an unpooled result arena — the allocation behaviour
// callers get when no Pool is configured. Release resets it but returns it
// nowhere; the GC reclaims it when the owner drops it.
func NewResult() *Result {
	return &Result{inUse: true}
}

// credit records bytes served from recycled storage toward the pool's
// result-arena counter (no-op for unpooled results).
func (r *Result) credit(bytes int64) {
	if r.pool != nil && bytes > 0 {
		r.pool.resultRecycled.Add(bytes)
	}
}

// Map returns the arena's snapshot map, cleared and ready to hold about
// capacity entries. The map's storage is recycled across checkouts (clearing
// a Go map keeps its buckets), so a steady state of similar-support queries
// stops allocating buckets entirely. The same map is returned every call:
// one live snapshot per checkout.
func (r *Result) Map(capacity int) *sparse.Map {
	if r.vec == nil {
		r.vec = sparse.NewMap(capacity)
		return r.vec
	}
	reused := r.vecRecycled
	if capacity < reused {
		reused = capacity
	}
	// id + float64 value per entry, the same 12-byte payload accounting as
	// the cache's footprint estimate (bucket overhead is not counted).
	r.credit(12 * int64(reused))
	r.vec.Clear()
	return r.vec
}

// Hash returns the arena's concurrent table, reset (with procs workers) to
// hold at least capacity entries. The sweep cut uses it for its
// support-sized rank lookup.
func (r *Result) Hash(procs, capacity int) *sparse.ConcurrentMap {
	if r.rank == nil {
		r.rank = sparse.NewConcurrent(capacity)
		return r.rank
	}
	if r.rank.ReusableFor(capacity) {
		// 4-byte key + 8-byte value per slot, two slots per entry of
		// capacity.
		r.credit(24 * int64(capacity))
	}
	r.rank.Reset(procs, capacity)
	return r.rank
}

// Uint32s returns a zeroed result-sized []uint32 of length n, sub-allocated
// from the arena (sweep orders, cluster member lists, evolving sets).
func (r *Result) Uint32s(n int) []uint32 {
	out, reused := r.u32.alloc(n)
	r.credit(4 * int64(reused))
	return out
}

// Float64s returns a zeroed result-sized []float64 of length n, sub-allocated
// from the arena (prefix conductances).
func (r *Result) Float64s(n int) []float64 {
	out, reused := r.f64.alloc(n)
	r.credit(8 * int64(reused))
	return out
}

// Int64s returns a zeroed result-sized []int64 of length n, sub-allocated
// from the arena (per-rank crossing-edge counts).
func (r *Result) Int64s(n int) []int64 {
	out, reused := r.i64.alloc(n)
	r.credit(8 * int64(reused))
	return out
}

// Uint64s returns a zeroed result-sized []uint64 of length n, sub-allocated
// from the arena (prefix degrees and volumes).
func (r *Result) Uint64s(n int) []uint64 {
	out, reused := r.u64.alloc(n)
	r.credit(8 * int64(reused))
	return out
}

// Ints returns a zeroed result-sized []int of length n, sub-allocated from
// the arena (the sort-based sweep's filtered index lists).
func (r *Result) Ints(n int) []int {
	out, reused := r.ints.alloc(n)
	r.credit(8 * int64(reused))
	return out
}

// Reset recycles the arena in place for another run within the same
// checkout (NCP reuses one arena across its whole profile this way). All
// previously handed-out memory is invalidated.
func (r *Result) Reset() {
	if r.vec != nil {
		r.vecRecycled = r.vec.Len()
		r.vec.Clear()
	}
	r.u32.reset()
	r.f64.reset()
	r.i64.reset()
	r.u64.reset()
	r.ints.reset()
}

// Release invalidates all handed-out memory and returns the arena to its
// pool. It must be called exactly once per checkout, after the last read of
// borrowed memory (for a served query: after the response write completes or
// the client disconnects).
func (r *Result) Release() {
	if !r.inUse {
		panic("workspace: Release of a result arena that is not checked out")
	}
	r.Reset()
	r.inUse = false
	if r.pool != nil {
		r.pool.putResult(r)
	}
}

// AcquireResult checks a result arena out of the pool, reusing a released
// one when available and allocating an empty one otherwise. The caller owns
// the result until Release. Arenas are stored like Workspaces: a single hot
// slot for the steady state, a sync.Pool behind it for concurrency overflow.
func (p *Pool) AcquireResult() *Result {
	p.resultAcquires.Add(1)
	p.resultMu.Lock()
	r := p.resultHot
	p.resultHot = nil
	p.resultMu.Unlock()
	if r == nil {
		if v := p.resultOverflow.Get(); v != nil {
			r = v.(*Result)
		}
	}
	if r != nil {
		p.resultHits.Add(1)
		r.inUse = true
		return r
	}
	p.resultMisses.Add(1)
	r = NewResult()
	r.pool = p
	return r
}

// putResult returns a reset arena to storage: the hot slot if free, the
// sync.Pool otherwise.
func (p *Pool) putResult(r *Result) {
	p.resultReleases.Add(1)
	p.resultMu.Lock()
	if p.resultHot == nil {
		p.resultHot = r
		p.resultMu.Unlock()
		return
	}
	p.resultMu.Unlock()
	p.resultOverflow.Put(r)
}
