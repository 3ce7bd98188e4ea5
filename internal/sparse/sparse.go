// Package sparse implements the sparse-set representations the paper's local
// algorithms depend on (§2 "Sparse Sets"): a sequential map-backed set and a
// lock-free concurrent hash table in the style of the phase-concurrent table
// of Shun & Blelloch [42].
//
// A sparse set stores (vertex, float64) pairs with the paper's ⊥ = 0
// convention: reading an absent key yields 0, and updating an absent key
// implicitly creates it. Both implementations expose Add (the paper's
// fetch-and-add), Set, Get, and iteration; the concurrent table additionally
// reports on Add whether the call created the entry, which EdgeMap uses to
// deduplicate its output frontier without any graph-sized scratch array.
//
// The concurrent table is open-addressing with linear probing over
// power-of-two capacity. Keys are claimed with compare-and-swap; values are
// accumulated with a CAS loop on the math.Float64bits image (an atomic
// floating-point fetch-and-add). It is phase-concurrent in the paper's
// sense: any number of goroutines may Add/Set/Get concurrently, while
// capacity changes (Reserve/Reset) must happen between parallel phases.
// Capacity is always reserved up front from the known per-iteration bound
// (frontier size + frontier volume), exactly as the paper sizes its tables.
package sparse

import (
	"math"
	"runtime"
	"sync/atomic"

	"parcluster/internal/parallel"
)

// Vector is the minimal read interface over sparse (vertex, float64)
// vectors, shared by Map, ConcurrentMap and Dense. The sweep cut and the
// snapshot/compare helpers only need these three methods, so they accept any
// representation.
type Vector interface {
	// Get returns the value for k, or 0 if absent (⊥ = 0).
	Get(k uint32) float64
	// Len returns the number of entries.
	Len() int
	// ForEach calls fn for every entry, in unspecified order. Must not run
	// concurrently with writers.
	ForEach(fn func(k uint32, v float64))
}

// Table is the concurrent accumulator interface the diffusion frontier
// engine drives: phase-concurrent Add/Set/Get with capacity management at
// phase boundaries. It is implemented by ConcurrentMap (open-addressing hash
// table, work proportional to the per-phase bound) and by Dense (flat
// graph-sized array plus a touched list, work proportional to the entries
// actually touched). The engine promotes from the former to the latter when
// a vector's support bound crosses a fraction of n.
type Table interface {
	Vector
	// Add atomically accumulates delta into k's value and reports whether
	// this call created the entry.
	Add(k uint32, delta float64) (created bool)
	// Set atomically overwrites k's value and reports whether this call
	// created the entry.
	Set(k uint32, v float64) (created bool)
	// Keys returns all present keys using p workers, in unspecified order.
	// Must not run concurrently with writers.
	Keys(p int) []uint32
	// Sum returns the sum of all values using p workers. Must not run
	// concurrently with writers.
	Sum(p int) float64
	// Reset clears the table and ensures capacity for at least capacity
	// entries (phase boundary only).
	Reset(p, capacity int)
	// Reserve grows the table so that extra more entries fit (phase
	// boundary only).
	Reserve(extra int)
}

var (
	_ Vector = (*Map)(nil)
	_ Table  = (*ConcurrentMap)(nil)
	_ Table  = (*Dense)(nil)
)

// emptyKey marks an unoccupied slot. Vertex IDs must be < MaxUint32.
const emptyKey = ^uint32(0)

// hash32 is the Murmur3 32-bit finalizer: a fast bijective scrambler with
// good avalanche behaviour, sufficient for power-of-two table indexing.
func hash32(k uint32) uint32 {
	k ^= k >> 16
	k *= 0x85ebca6b
	k ^= k >> 13
	k *= 0xc2b2ae35
	k ^= k >> 16
	return k
}

// Map is the sequential sparse set (the paper uses STL unordered_map here).
// The zero value is not ready to use; construct with NewMap.
type Map struct {
	m map[uint32]float64
}

// NewMap returns a sequential sparse set with capacity hint cap.
func NewMap(capacity int) *Map {
	if capacity < 0 {
		capacity = 0
	}
	return &Map{m: make(map[uint32]float64, capacity)}
}

// Get returns the value for k, or 0 if absent (⊥ = 0).
func (m *Map) Get(k uint32) float64 { return m.m[k] }

// Has reports whether k is present.
func (m *Map) Has(k uint32) bool { _, ok := m.m[k]; return ok }

// Add accumulates delta into k's value, creating the entry if needed, and
// reports whether it was created.
func (m *Map) Add(k uint32, delta float64) (created bool) {
	old, ok := m.m[k]
	m.m[k] = old + delta
	return !ok
}

// Set overwrites k's value.
func (m *Map) Set(k uint32, v float64) { m.m[k] = v }

// Delete removes k if present.
func (m *Map) Delete(k uint32) { delete(m.m, k) }

// Len returns the number of entries.
func (m *Map) Len() int { return len(m.m) }

// Clear removes all entries while keeping the map's storage, so a recycled
// Map (see internal/workspace's result arena) refills without re-growing
// its buckets.
func (m *Map) Clear() { clear(m.m) }

// ForEach calls fn for every entry, in unspecified order.
func (m *Map) ForEach(fn func(k uint32, v float64)) {
	for k, v := range m.m {
		fn(k, v)
	}
}

// Keys returns the keys in unspecified order.
func (m *Map) Keys() []uint32 {
	out := make([]uint32, 0, len(m.m))
	for k := range m.m {
		out = append(out, k)
	}
	return out
}

// Sum returns the sum of all values (the l1 norm for non-negative vectors,
// used by the mass-conservation invariants).
func (m *Map) Sum() float64 {
	s := 0.0
	for _, v := range m.m {
		s += v
	}
	return s
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	out := NewMap(len(m.m))
	for k, v := range m.m {
		out.m[k] = v
	}
	return out
}

// counterShards is the number of entry-count shards. A single shared
// counter would be touched by every creating Add from every core — profiled
// at ~30% of total CPU from cache-line ping-pong alone — so the count is
// sharded by slot index across independent cache lines and summed on read.
const counterShards = 64

type countShard struct {
	n atomic.Int64
	_ [56]byte // pad to a cache line so shards never share one
}

// ConcurrentMap is the lock-free sparse set used by the parallel algorithms.
// Construct with NewConcurrent; the zero value is not usable.
type ConcurrentMap struct {
	keys  []uint32 // emptyKey = free slot; claimed with CAS
	vals  []uint64 // math.Float64bits of the value; updated with CAS loops
	mask  uint32
	count [counterShards]countShard
}

// NewConcurrent returns a concurrent sparse set able to hold at least
// capacity entries without exceeding a 50% load factor.
func NewConcurrent(capacity int) *ConcurrentMap {
	m := &ConcurrentMap{}
	m.alloc(capacity)
	return m
}

func tableSize(capacity int) int {
	if capacity < 4 {
		capacity = 4
	}
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	return size
}

func (m *ConcurrentMap) alloc(capacity int) {
	size := tableSize(capacity)
	m.keys = make([]uint32, size)
	for i := range m.keys {
		m.keys[i] = emptyKey
	}
	m.vals = make([]uint64, size)
	m.mask = uint32(size - 1)
	m.resetCount()
}

func (m *ConcurrentMap) resetCount() {
	for i := range m.count {
		m.count[i].n.Store(0)
	}
}

// Len returns the number of entries. Safe to call concurrently; the value is
// exact once all concurrent Adds have completed.
func (m *ConcurrentMap) Len() int {
	var n int64
	for i := range m.count {
		n += m.count[i].n.Load()
	}
	return int(n)
}

// Cap returns the number of entries the table can hold at 50% load.
func (m *ConcurrentMap) Cap() int { return len(m.keys) / 2 }

// findOrClaim returns the slot index for key k, claiming an empty slot if k
// is not present. created reports whether this call inserted k.
func (m *ConcurrentMap) findOrClaim(k uint32) (slot uint32, created bool) {
	i := hash32(k) & m.mask
	// Every pass — including a lost-CAS re-read of the same slot — counts
	// toward the probe bound, so the hard-overflow backstop fires even if
	// the loop stops advancing. A slot costs at most two passes (one lost
	// CAS plus one re-read), hence the 2x margin.
	for probes := 0; probes <= 2*len(m.keys); probes++ {
		cur := atomic.LoadUint32(&m.keys[i])
		if cur == k {
			return i, false
		}
		if cur == emptyKey {
			if atomic.CompareAndSwapUint32(&m.keys[i], emptyKey, k) {
				m.count[i%counterShards].n.Add(1)
				return i, true
			}
			// Lost the race; re-read this slot (it may now hold k).
			continue
		}
		i = (i + 1) & m.mask
	}
	// The soft capacity discipline is that callers Reserve/Reset with a
	// per-phase bound, so hitting a full table means that bound was wrong.
	panic("sparse: ConcurrentMap overflow; Reserve was not called with a sufficient bound")
}

// find returns the slot of k, or -1 if absent.
func (m *ConcurrentMap) find(k uint32) int {
	i := hash32(k) & m.mask
	for probes := 0; probes <= len(m.keys); probes++ {
		cur := atomic.LoadUint32(&m.keys[i])
		if cur == k {
			return int(i)
		}
		if cur == emptyKey {
			return -1
		}
		i = (i + 1) & m.mask
	}
	return -1
}

// Get returns the value for k, or 0 if absent. Safe under concurrent Adds;
// a concurrent read sees either the pre- or post-update value.
func (m *ConcurrentMap) Get(k uint32) float64 {
	i := m.find(k)
	if i < 0 {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&m.vals[i]))
}

// Has reports whether k is present.
func (m *ConcurrentMap) Has(k uint32) bool { return m.find(k) >= 0 }

// Add atomically accumulates delta into k's value (the paper's
// fetch-and-add), creating the entry if needed, and reports whether this
// call created it. Safe for any number of concurrent callers.
func (m *ConcurrentMap) Add(k uint32, delta float64) (created bool) {
	slot, created := m.findOrClaim(k)
	addr := &m.vals[slot]
	for {
		old := atomic.LoadUint64(addr)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, next) {
			return created
		}
	}
}

// Set atomically overwrites k's value (last writer wins), creating the entry
// if needed, and reports whether this call created it.
func (m *ConcurrentMap) Set(k uint32, v float64) (created bool) {
	slot, created := m.findOrClaim(k)
	atomic.StoreUint64(&m.vals[slot], math.Float64bits(v))
	return created
}

// Reset clears the table and ensures capacity for at least capacity
// entries, using p workers for the clearing pass. Must not run concurrently
// with other operations (phase boundary only).
//
// The allocation is reused only while it stays within 4x of the requested
// size; a much larger leftover table is dropped and reallocated at the
// right size instead. This keeps the per-iteration clearing cost O(current
// iteration bound) — not O(largest bound ever seen) — which the algorithms'
// locality guarantees rely on.
func (m *ConcurrentMap) Reset(p, capacity int) {
	size := tableSize(capacity)
	if size > len(m.keys) || size*4 < len(m.keys) {
		m.alloc(capacity)
		return
	}
	keys, vals := m.keys, m.vals
	parallel.ForRange(p, len(keys), 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = emptyKey
		}
		for i := lo; i < hi; i++ {
			vals[i] = 0
		}
	})
	m.resetCount()
}

// ReusableFor reports whether Reset(p, capacity) would reuse the table's
// current allocation rather than reallocating — the recycling-accounting
// hook for pooled tables (see internal/workspace's result arena).
func (m *ConcurrentMap) ReusableFor(capacity int) bool {
	size := tableSize(capacity)
	return size <= len(m.keys) && size*4 >= len(m.keys)
}

// Reserve grows the table (rehashing existing entries) so that extra more
// entries fit. Must not run concurrently with other operations (phase
// boundary only).
func (m *ConcurrentMap) Reserve(extra int) {
	need := m.Len() + extra
	if tableSize(need) <= len(m.keys) {
		return
	}
	oldKeys, oldVals := m.keys, m.vals
	m.alloc(need)
	for i, k := range oldKeys {
		if k != emptyKey {
			slot, _ := m.findOrClaim(k)
			m.vals[slot] = oldVals[i]
		}
	}
}

// ForEach calls fn for every entry, in slot order. Must not run concurrently
// with writers.
func (m *ConcurrentMap) ForEach(fn func(k uint32, v float64)) {
	for i, k := range m.keys {
		if k != emptyKey {
			fn(k, math.Float64frombits(m.vals[i]))
		}
	}
}

// Keys returns all keys using p workers, in unspecified order. Must not run
// concurrently with writers. Work is proportional to the table capacity,
// which is proportional to the entry bound it was sized with.
func (m *ConcurrentMap) Keys(p int) []uint32 {
	return parallel.FilterInto(p, m.keys, nil, func(k uint32) bool { return k != emptyKey })
}

// Sum returns the sum of all values using p workers. Must not run
// concurrently with writers.
func (m *ConcurrentMap) Sum(p int) float64 {
	n := len(m.keys)
	sums := make([]float64, (n+4095)/4096)
	parallel.ForRange(p, n, 4096, func(lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			if m.keys[i] != emptyKey {
				s += math.Float64frombits(m.vals[i])
			}
		}
		sums[lo/4096] = s
	})
	s := 0.0
	for _, v := range sums {
		s += v
	}
	return s
}

// ToMap snapshots the table into a sequential Map. Must not run concurrently
// with writers.
func (m *ConcurrentMap) ToMap() *Map {
	out := NewMap(m.Len())
	m.ForEach(func(k uint32, v float64) { out.Set(k, v) })
	return out
}

// IDMap assigns dense consecutive IDs (0, 1, 2, ...) to a sparse set of
// uint32 keys, concurrently. rand-HK-PR uses it to map the last-visited
// vertices of random walks onto a compact integer range before the parallel
// integer sort (§3.5).
type IDMap struct {
	keys []uint32
	ids  []int32
	mask uint32
	next atomic.Int32
}

// NewIDMap returns an IDMap with capacity for at least capacity distinct keys.
func NewIDMap(capacity int) *IDMap {
	size := tableSize(capacity)
	m := &IDMap{
		keys: make([]uint32, size),
		ids:  make([]int32, size),
		mask: uint32(size - 1),
	}
	for i := range m.keys {
		m.keys[i] = emptyKey
	}
	return m
}

// Assign returns the dense ID for k, allocating the next free ID if k is
// new. Safe for concurrent use. IDs are dense in [0, Count()) but their
// assignment order is nondeterministic under concurrency.
func (m *IDMap) Assign(k uint32) int32 {
	i := hash32(k) & m.mask
	for probes := 0; probes <= 2*len(m.keys); probes++ {
		cur := atomic.LoadUint32(&m.keys[i])
		if cur == k {
			// The ID may not be published yet if the claimer is between its
			// two stores; wait until it is (ids are stored as id+1 so 0
			// means unpublished). Yield to the scheduler between reads: on
			// GOMAXPROCS=1 the claimer cannot run — and publish — until this
			// goroutine gives up the processor, so a raw spin would livelock.
			for {
				if id := atomic.LoadInt32(&m.ids[i]); id != 0 {
					return id - 1
				}
				runtime.Gosched()
			}
		}
		if cur == emptyKey {
			if atomic.CompareAndSwapUint32(&m.keys[i], emptyKey, k) {
				id := m.next.Add(1) - 1
				atomic.StoreInt32(&m.ids[i], id+1)
				if int(id) >= len(m.keys)/2 {
					panic("sparse: IDMap overflow")
				}
				return id
			}
			// Lost the race; re-read this slot. Counts as a probe so the
			// full-table backstop below stays reachable.
			continue
		}
		i = (i + 1) & m.mask
	}
	panic("sparse: IDMap full")
}

// Count returns the number of distinct keys assigned so far.
func (m *IDMap) Count() int { return int(m.next.Load()) }

// ForEach calls fn(key, id) for every assignment. Must not run concurrently
// with Assign.
func (m *IDMap) ForEach(fn func(k uint32, id int32)) {
	for i, k := range m.keys {
		if k != emptyKey {
			fn(k, m.ids[i]-1)
		}
	}
}
