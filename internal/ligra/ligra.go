// Package ligra implements the subset of the Ligra shared-memory graph
// processing framework [41] that the paper's algorithms use (§2 "Ligra
// Framework"): a dual-representation vertexSubset and the data-parallel
// vertexMap and edgeMap operators.
//
// Like the real Ligra framework, a VertexSubset has two representations — a
// sparse ID list and a dense bitmap over [0, n) — and EdgeMap has two
// traversal strategies to match. The sparse path does work proportional to
// the input subset and its incident edges only (the property that makes the
// implementations "local" in the paper's sense), at the cost of a per-call
// degree prefix sum and per-chunk binary searches. The dense path scans the
// whole CSR once with a bitmap membership test per vertex — O(n + vol(F))
// with a much smaller constant per edge — which wins once the frontier's
// incident edges are a sizable fraction of the graph. The crossover follows
// Ligra's direction heuristic: go dense when |F| + vol(F) > (n + 2m)/k with
// k = DenseThresholdFrac.
//
// Both EdgeMap paths are edge-balanced, so a single high-degree vertex
// (common in the power-law graphs the paper evaluates) cannot serialize an
// iteration: the sparse path partitions the frontier's incident edges into
// equal-size chunks via a prefix sum over degrees; the dense path chunks the
// graph's edge array directly through the CSR offsets.
package ligra

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"parcluster/internal/graph"
	"parcluster/internal/parallel"
)

// decodeBufs recycles per-chunk neighbor-decode buffers. A heap CSR's
// NeighborsTail returns a slice aliasing its adjacency storage and never
// touches the buffer, so buffers are only acquired when the representation
// actually decodes (compressed CSR) — the heap hot path stays exactly as
// allocation-free as before the graph.Graph seam.
var decodeBufs = sync.Pool{New: func() any { b := make([]uint32, 0, 4096); return &b }}

// acquireDecodeBuf hands a chunk worker a reusable decode buffer when g
// needs one, else (nil, nil).
func acquireDecodeBuf(g graph.Graph) ([]uint32, *[]uint32) {
	if !graph.NeedsDecode(g) {
		return nil, nil
	}
	bp := decodeBufs.Get().(*[]uint32)
	return *bp, bp
}

// releaseDecodeBuf returns a buffer to the pool, keeping any growth the
// chunk's decodes produced. No-op for the heap-CSR (nil) case.
func releaseDecodeBuf(bp *[]uint32, last []uint32) {
	if bp != nil {
		*bp = last[:0]
		decodeBufs.Put(bp)
	}
}

// Mode selects an EdgeMap traversal strategy.
type Mode uint8

const (
	// Auto picks sparse or dense per call via the Ligra direction
	// heuristic (OverDenseThreshold).
	Auto Mode = iota
	// ForceSparse always uses the sparse (ID-list) traversal.
	ForceSparse
	// ForceDense always uses the dense (bitmap-scan) traversal.
	ForceDense
)

// DenseThresholdFrac is the k in Ligra's direction heuristic: the dense
// traversal is selected when |F| + vol(F) > (n + 2m)/k. Ligra uses m/20 for
// out-degree frontiers; with our undirected 2m edge slots and the n term
// covering the per-vertex bitmap tests, (n + 2m)/20 is the equivalent.
const DenseThresholdFrac = 20

// OverDenseThreshold reports whether a frontier of the given size and
// volume crosses the dense-traversal threshold for g.
func OverDenseThreshold(g graph.Graph, size int, vol uint64) bool {
	return uint64(size)+vol > (uint64(g.NumVertices())+g.TotalVolume())/DenseThresholdFrac
}

// VertexSubset is a set of vertex IDs (Ligra's vertexSubset) in one or both
// of two representations: a sparse ID list and a dense bitmap over the
// vertex universe [0, n). The zero value is the empty subset. Conversion is
// lazy — a representation is materialized only when an operation needs it
// (ToSparse, WithBitmap) — and subsets are immutable values: conversions
// return a new subset sharing the already-built representation.
type VertexSubset struct {
	ids   []uint32 // sparse representation; may be nil if bits is set
	bits  []uint64 // dense bitmap; may be nil
	n     int      // universe size; meaningful when bits != nil
	count int      // Size() when ids == nil
}

// FromIDs wraps an existing distinct-ID slice without copying.
func FromIDs(ids []uint32) VertexSubset { return VertexSubset{ids: ids} }

// FromBitmap wraps a bitmap over [0, n) with the given population count,
// without copying. The caller asserts count matches the set bits.
func FromBitmap(bits []uint64, n, count int) VertexSubset {
	return VertexSubset{bits: bits, n: n, count: count}
}

// Size returns the number of vertices in the subset.
func (s VertexSubset) Size() int {
	if s.ids != nil {
		return len(s.ids)
	}
	return s.count
}

// IsEmpty reports whether the subset is empty.
func (s VertexSubset) IsEmpty() bool { return s.Size() == 0 }

// IsDense reports whether the subset carries a dense bitmap.
func (s VertexSubset) IsDense() bool { return s.bits != nil }

// Bits returns the underlying bitmap, or nil if none has been built. It
// must not be modified.
func (s VertexSubset) Bits() []uint64 { return s.bits }

// Has reports whether v is in the subset: O(1) against the bitmap when one
// is present, otherwise a linear scan of the ID list.
func (s VertexSubset) Has(v uint32) bool {
	if s.bits != nil {
		w := int(v >> 6)
		return w < len(s.bits) && s.bits[w]&(1<<(v&63)) != 0
	}
	for _, u := range s.ids {
		if u == v {
			return true
		}
	}
	return false
}

// IDs returns the subset's ID slice, converting from the bitmap
// sequentially if the sparse representation was never materialized (use
// ToSparse for a parallel conversion). The result must not be modified.
func (s VertexSubset) IDs() []uint32 {
	if s.ids == nil && s.bits != nil {
		return s.ToSparse(1).ids
	}
	return s.ids
}

// ToSparse returns the subset with its sparse ID list materialized (in
// increasing vertex order), using p workers for the conversion.
func (s VertexSubset) ToSparse(p int) VertexSubset {
	if s.ids != nil || s.bits == nil {
		return s
	}
	idx := parallel.FilterIndexInto(p, s.n, nil, func(i int) bool {
		return s.bits[i>>6]&(1<<(uint(i)&63)) != 0
	})
	ids := make([]uint32, len(idx))
	parallel.For(p, len(idx), 4096, func(i int) { ids[i] = uint32(idx[i]) })
	s.ids = ids
	return s
}

// setBit sets bit v of bits with a CAS loop (several writers may share a
// word) and reports whether this call flipped it.
func setBit(bits []uint64, v uint32) bool {
	addr := &bits[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// WithBitmap returns the subset carrying a dense bitmap over [0, n), built
// with p workers. buf, if it has sufficient capacity, is cleared and reused
// as the bitmap storage — callers that convert every iteration (the
// frontier engine) pass the previous iteration's buffer to avoid
// reallocating. Pass nil to allocate fresh.
func (s VertexSubset) WithBitmap(p, n int, buf []uint64) VertexSubset {
	if s.bits != nil {
		return s
	}
	words := (n + 63) / 64
	if cap(buf) >= words {
		buf = buf[:words]
		parallel.ForRange(p, words, 8192, func(lo, hi int) {
			clear(buf[lo:hi])
		})
	} else {
		buf = make([]uint64, words)
	}
	ids := s.ids
	parallel.For(p, len(ids), 2048, func(i int) {
		setBit(buf, ids[i])
	})
	s.bits = buf
	s.n = n
	s.count = len(ids)
	return s
}

// popcount returns the number of set bits using p workers.
func popcount(p int, words []uint64) int {
	const grain = 8192
	if len(words) < 2*grain || parallel.ResolveProcs(p) == 1 {
		c := 0
		for _, w := range words {
			c += bits.OnesCount64(w)
		}
		return c
	}
	counts := make([]int, (len(words)+grain-1)/grain)
	parallel.ForRange(p, len(words), grain, func(lo, hi int) {
		c := 0
		for _, w := range words[lo:hi] {
			c += bits.OnesCount64(w)
		}
		counts[lo/grain] = c
	})
	c := 0
	for _, v := range counts {
		c += v
	}
	return c
}

// Volume returns the sum of the degrees of the subset's vertices in g,
// computed with p workers. This is the per-iteration edge bound the
// algorithms use to size their sparse tables and drive the sparse/dense
// decision.
func (s VertexSubset) Volume(p int, g graph.Graph) uint64 {
	if s.ids == nil && s.bits != nil {
		// Dense-only subset: sum degrees straight off the bitmap.
		offs := g.Offsets()
		words := len(s.bits)
		const grain = 2048
		vols := make([]uint64, (words+grain-1)/grain)
		parallel.ForRange(p, words, grain, func(lo, hi int) {
			var vol uint64
			for w := lo; w < hi; w++ {
				word := s.bits[w]
				for word != 0 {
					v := uint32(w<<6) + uint32(bits.TrailingZeros64(word))
					vol += offs[v+1] - offs[v]
					word &= word - 1
				}
			}
			vols[lo/grain] = vol
		})
		var vol uint64
		for _, v := range vols {
			vol += v
		}
		return vol
	}
	n := len(s.ids)
	if n == 0 {
		return 0
	}
	if parallel.ResolveProcs(p) == 1 || n < 2048 {
		var vol uint64
		for _, v := range s.ids {
			vol += uint64(g.Degree(v))
		}
		return vol
	}
	degs := make([]uint64, n)
	parallel.For(p, n, 0, func(i int) { degs[i] = uint64(g.Degree(s.ids[i])) })
	return parallel.Sum(p, degs)
}

// VertexMap applies fn to every vertex in the subset, in parallel
// (Ligra's vertexMap). fn may side-effect shared structures and must be
// safe for concurrent calls on distinct vertices.
func VertexMap(p int, s VertexSubset, fn func(v uint32)) {
	s = s.ToSparse(p)
	parallel.For(p, len(s.ids), 512, func(i int) { fn(s.ids[i]) })
}

// VertexMapIndexed is VertexMap with the vertex's position in the subset
// passed to fn, pairing with EdgeApplyIndexedScratch for per-source state
// arrays.
func VertexMapIndexed(p int, s VertexSubset, fn func(i int, v uint32)) {
	s = s.ToSparse(p)
	parallel.For(p, len(s.ids), 512, func(i int) { fn(i, s.ids[i]) })
}

// VertexFilterInto returns the sub-subset for which pred holds, preserving
// order (Ligra's vertexFilter). pred must be pure or safe under concurrency.
// The kept IDs are written into buf's storage when its capacity suffices
// (nil allocates fresh; see parallel.FilterInto). buf must not overlap s's
// ID storage; the diffusion engine satisfies this by filtering an
// accumulator's touched-key list into a separate recycled frontier buffer.
func VertexFilterInto(p int, s VertexSubset, buf []uint32, pred func(v uint32) bool) VertexSubset {
	s = s.ToSparse(p)
	return VertexSubset{ids: parallel.FilterInto(p, s.ids, buf, pred)}
}

// edgeMapGrain is the number of edges per EdgeMap work chunk.
const edgeMapGrain = 2048

// EdgeMapMode applies update(u, v) to every edge (u, v) with u in the
// subset (Ligra's edgeMap), in parallel over edge-balanced chunks, and
// returns the subset of targets v for which update returned true. Auto
// applies the Ligra direction heuristic (dense when |F| + vol(F) >
// (n + 2m)/k), and the Force modes pin a strategy.
//
// update must be thread-safe: multiple frontier vertices may push to the
// same target concurrently (the paper resolves this with fetch-and-add).
// The dense path returns a bitmap-representation subset (each qualifying
// target set exactly once). The sparse path returns an ID-list subset
// containing each target at most as many times as update returned true
// for it; the idiomatic way to get an exactly-deduplicated output is to
// return the "created" flag of a sparse-set Add, which is true exactly
// once per target. Sparse work is O(|subset| + vol(subset)) and depth is
// polylogarithmic, matching Ligra's bounds.
func EdgeMapMode(p int, g graph.Graph, s VertexSubset, mode Mode, update func(src, dst uint32) bool) VertexSubset {
	dense := mode == ForceDense
	if mode == Auto {
		// The volume pass is only needed when the heuristic decides.
		dense = OverDenseThreshold(g, s.Size(), s.Volume(p, g))
	}
	if !dense {
		return edgeMapSparse(p, g, s, update)
	}
	sb := s.WithBitmap(p, g.NumVertices(), nil)
	out := make([]uint64, (g.NumVertices()+63)/64)
	EdgeApplyDense(p, g, sb, func(src, dst uint32) {
		if update(src, dst) {
			setBit(out, dst)
		}
	})
	return FromBitmap(out, g.NumVertices(), popcount(p, out))
}

// edgeMapSparse is EdgeMapMode's sparse traversal: the frontier's incident
// edges are partitioned into equal-size chunks via a prefix sum over
// degrees, and each chunk collects the targets its updates accept.
func edgeMapSparse(p int, g graph.Graph, s VertexSubset, update func(src, dst uint32) bool) VertexSubset {
	s = s.ToSparse(p)
	nf := len(s.ids)
	if nf == 0 {
		return VertexSubset{}
	}
	degs := make([]uint64, nf)
	parallel.For(p, nf, 0, func(i int) { degs[i] = uint64(g.Degree(s.ids[i])) })
	offs := make([]uint64, nf)
	total := parallel.ScanExclusive(p, degs, offs)
	if total == 0 {
		return VertexSubset{}
	}
	chunks := int((total + edgeMapGrain - 1) / edgeMapGrain)
	outs := make([][]uint32, chunks)
	parallel.ForRange(p, int(total), edgeMapGrain, func(elo, ehi int) {
		var out []uint32
		buf, bp := acquireDecodeBuf(g)
		// First frontier index whose edge range contains elo.
		i := sort.Search(nf, func(i int) bool { return offs[i] > uint64(elo) }) - 1
		for e := elo; e < ehi; i++ {
			v := s.ids[i]
			// A chunk boundary can land mid-list; NeighborsTail resumes
			// decoding from the covering sub-block instead of the list head.
			j := e - int(offs[i])
			ns, start := g.NeighborsTail(buf, v, j)
			buf = ns
			for k := j - start; k < len(ns) && e < ehi; k++ {
				if update(v, ns[k]) {
					out = append(out, ns[k])
				}
				e++
			}
		}
		releaseDecodeBuf(bp, buf)
		outs[elo/edgeMapGrain] = out
	})
	return VertexSubset{ids: parallel.Concat(p, outs)}
}

// EdgeApplyIndexedScratch applies fn to every edge (u, v) with u in the
// sparse subset, edge-balanced like EdgeMapMode's sparse traversal, with
// the source's position in the subset passed to fn, but collects no output
// frontier. The diffusion engine uses it when the next frontier is derived
// from an accumulator's touched-key set instead of an output subset, and
// uses the index to read per-source state (the pushed share, precomputed
// once per frontier vertex in a dense array) instead of paying a
// sparse-table lookup on every edge — the same source-value hoisting the
// paper's Ligra implementation gets for free from its dense vertex arrays.
// degs and offs are prefix-sum scratch and must each be nil (allocate
// fresh) or have length >= s.Size(); the pooled sweep cut passes
// result-arena slices here so a serving query's edge pass allocates
// nothing support-sized.
func EdgeApplyIndexedScratch(p int, g graph.Graph, s VertexSubset, degs, offs []uint64, fn func(srcIdx int, src, dst uint32)) {
	s = s.ToSparse(p)
	nf := len(s.ids)
	if nf == 0 {
		return
	}
	if degs == nil {
		degs = make([]uint64, nf)
	} else {
		degs = degs[:nf]
	}
	parallel.For(p, nf, 0, func(i int) { degs[i] = uint64(g.Degree(s.ids[i])) })
	if offs == nil {
		offs = make([]uint64, nf)
	} else {
		offs = offs[:nf]
	}
	total := parallel.ScanExclusive(p, degs, offs)
	if total == 0 {
		return
	}
	parallel.ForRange(p, int(total), edgeMapGrain, func(elo, ehi int) {
		buf, bp := acquireDecodeBuf(g)
		i := sort.Search(nf, func(i int) bool { return offs[i] > uint64(elo) }) - 1
		for e := elo; e < ehi; i++ {
			v := s.ids[i]
			j := e - int(offs[i])
			ns, start := g.NeighborsTail(buf, v, j)
			buf = ns
			for k := j - start; k < len(ns) && e < ehi; k++ {
				fn(i, v, ns[k])
				e++
			}
		}
		releaseDecodeBuf(bp, buf)
	})
}

// EdgeApplyDense applies fn to every edge (u, v) with u in the subset,
// using the dense traversal: the graph's edge array is chunked directly
// through the CSR offsets (no per-call prefix sum) and each covered vertex
// pays one bitmap membership test. The subset must carry a bitmap
// (WithBitmap). Work is O(n + vol(F)) regardless of how the frontier's
// edges are distributed, and chunks are edge-balanced so high-degree
// vertices split across workers.
func EdgeApplyDense(p int, g graph.Graph, s VertexSubset, fn func(src, dst uint32)) {
	if s.bits == nil {
		panic("ligra: EdgeApplyDense requires a bitmap subset (call WithBitmap)")
	}
	offs := g.Offsets()
	n := g.NumVertices()
	total := int(g.TotalVolume())
	if total == 0 || s.IsEmpty() {
		return
	}
	if tw, ok := g.(graph.TailWalker); ok {
		// Decoding representation with a fused walker: stream fn straight
		// out of the decoder instead of materializing each tail into
		// scratch and rescanning it. Same chunking, same visit order.
		parallel.ForRange(p, total, edgeMapGrain, func(elo, ehi int) {
			v := sort.Search(n, func(i int) bool { return offs[i+1] > uint64(elo) })
			var src uint32
			visit := func(dst uint32) { fn(src, dst) }
			for e := elo; e < ehi && v < n; v++ {
				if offs[v+1] == offs[v] {
					continue
				}
				if !s.Has(uint32(v)) {
					e = int(offs[v+1]) // skip the whole adjacency in O(1)
					continue
				}
				src = uint32(v)
				e += tw.WalkTail(src, e-int(offs[v]), ehi-e, visit)
			}
		})
		return
	}
	parallel.ForRange(p, total, edgeMapGrain, func(elo, ehi int) {
		buf, bp := acquireDecodeBuf(g)
		// First vertex whose edge range extends past elo (skipping any run
		// of zero-degree vertices at the boundary).
		v := sort.Search(n, func(i int) bool { return offs[i+1] > uint64(elo) })
		for e := elo; e < ehi && v < n; v++ {
			if offs[v+1] == offs[v] {
				continue
			}
			if !s.Has(uint32(v)) {
				e = int(offs[v+1]) // skip the whole adjacency in O(1)
				continue
			}
			j := e - int(offs[v])
			ns, start := g.NeighborsTail(buf, uint32(v), j)
			buf = ns
			for k := j - start; k < len(ns) && e < ehi; k++ {
				fn(uint32(v), ns[k])
				e++
			}
		}
		releaseDecodeBuf(bp, buf)
	})
}
