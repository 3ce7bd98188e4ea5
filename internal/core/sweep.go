package core

import (
	"math"
	"sync/atomic"

	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// sweep.go implements the sweep cut rounding procedure (§3.1): sort the
// support of a diffusion vector by degree-normalized mass, evaluate the
// conductance of every prefix, and return the best prefix.
//
// Three implementations:
//
//   - SweepCutSeqInto: the standard sequential sweep (sort + incremental
//     boundary maintenance), O(N log N + vol(S_N)) work.
//   - SweepCutParInto: the default parallel sweep. Per-rank crossing-edge
//     deltas are accumulated with fetch-and-add into a rank-indexed array
//     and prefix-summed — the same O(N log N + vol(S_N)) work and
//     O(log vol) depth as Theorem 1, with the integer sort replaced by
//     direct bucket accumulation (ablation A2 compares the two).
//   - SweepCutParSortInto: the faithful Theorem 1 algorithm, building the
//     (±1, rank) pair array Z, integer-sorting it by rank, and recovering
//     per-rank crossing counts with prefix sums — including the worked
//     example of §3.1, which the tests reproduce exactly.
//
// All three order ties (equal p[v]/d(v)) by ascending vertex ID, making the
// sweep order — and therefore the returned cluster — identical across
// implementations and worker counts. All three borrow every support-sized
// (and, for the sort-based sweep, volume-sized) piece of result and scratch
// from a workspace.Result arena when one is passed (nil allocates fresh),
// so batch ablations that run them hot allocate nothing per call
// (DESIGN.md §7 has the measured numbers).

// SweepResult is the outcome of a sweep cut.
type SweepResult struct {
	// Cluster is the minimum-conductance prefix (vertex IDs in sweep
	// order). Empty when the input vector has no positive entries.
	Cluster []uint32
	// Conductance is φ(Cluster), or 1 for an empty input.
	Conductance float64
	// Volume and Cut are vol(Cluster) and |∂(Cluster)|.
	Volume, Cut uint64
	// Order is the full sweep order over the vector's support.
	Order []uint32
	// PrefixConductance[i] is φ({Order[0..i]}); the network community
	// profile consumes every prefix, not just the winner.
	PrefixConductance []float64
}

// sweepOrder extracts the positive support of vec and sorts it by
// non-increasing p[v]/d(v), breaking ties by ascending vertex ID (a total
// order, so every implementation produces the same permutation).
// Zero-degree vertices sort first (infinite normalized mass) and can never
// win: every prefix they head has zero volume and conductance 1. The order
// array — and, when the parallel merge sort runs, its merge scratch — is
// borrowed from res when one is configured, so the pooled sweep's sort
// allocates nothing (the last per-call sweep allocation, DESIGN.md §7).
func sweepOrder(procs int, g graph.Graph, vec *sparse.Map, res *workspace.Result) []uint32 {
	var order []uint32
	if res != nil {
		order = res.Uint32s(vec.Len())[:0]
	} else {
		order = make([]uint32, 0, vec.Len())
	}
	vec.ForEach(func(v uint32, mass float64) {
		if mass > 0 {
			order = append(order, v)
		}
	})
	score := func(v uint32) float64 {
		d := g.Degree(v)
		if d == 0 {
			return math.Inf(1)
		}
		return vec.Get(v) / float64(d)
	}
	var scratch []uint32
	if n := parallel.SortScratchLen(procs, len(order)); n > 0 && res != nil {
		scratch = res.Uint32s(n)
	}
	parallel.SortScratch(procs, order, scratch, func(a, b uint32) bool {
		sa, sb := score(a), score(b)
		if sa != sb {
			return sa > sb
		}
		return a < b
	})
	return order
}

func emptySweep() SweepResult { return SweepResult{Conductance: 1} }

// rankTable maps each vertex of the sweep order to its rank+1, so that
// Get == 0 means "outside the support". Every sweep variant shares the
// convention, so the arena's one recycled hash table (borrowed from res
// when one is configured) serves them all.
func rankTable(procs int, order []uint32, res *workspace.Result) *sparse.ConcurrentMap {
	var rank *sparse.ConcurrentMap
	if res != nil {
		rank = res.Hash(procs, len(order))
	} else {
		rank = sparse.NewConcurrent(len(order))
	}
	parallel.For(procs, len(order), 1024, func(i int) {
		rank.Set(order[i], float64(i+1))
	})
	return rank
}

// SweepCutSeqInto is the standard sequential sweep cut (sort + incremental
// boundary maintenance). The result and its scratch — the sweep order, the
// rank table, the prefix conductances — are borrowed from res (nil =
// allocate fresh). The returned slices then alias the arena and are valid
// until it is Reset or Released; results are bit-identical with and
// without an arena.
func SweepCutSeqInto(g graph.Graph, vec *sparse.Map, res *workspace.Result) SweepResult {
	order := sweepOrder(1, g, vec, res)
	N := len(order)
	if N == 0 {
		return emptySweep()
	}
	rank := rankTable(1, order, res)
	totalVol := g.TotalVolume()
	prefix := resFloat64s(res, N)
	var vol uint64
	var cut int64
	best, bestPhi := 0, math.Inf(1)
	var bestVol, bestCut uint64
	var adj []uint32
	for i, v := range order {
		vol += uint64(g.Degree(v))
		ns := g.NeighborsInto(adj, v)
		adj = ns
		for _, w := range ns {
			if rw := int(rank.Get(w)) - 1; rw >= 0 && rw < i {
				cut-- // edge became internal
			} else {
				cut++ // edge leaves the growing set
			}
		}
		phi := graph.ConductanceFrom(totalVol, vol, uint64(cut))
		prefix[i] = phi
		if phi < bestPhi {
			best, bestPhi = i, phi
			bestVol, bestCut = vol, uint64(cut)
		}
	}
	return finishSweep(order, prefix, best, bestVol, bestCut)
}

// SweepCutParInto is the default work-efficient parallel sweep cut:
// crossing counts per rank are obtained by accumulating +1/-1
// contributions of every edge with fetch-and-add into a rank-indexed array,
// then prefix-summing. Every support-sized piece of the result and its
// scratch — the sweep order, the rank table, the crossing counts, the
// prefix volumes and conductances — is borrowed from res (nil = allocate
// fresh). The returned result's Cluster, Order and PrefixConductance
// slices then alias the arena and are valid until it is Reset or Released;
// results are bit-identical with and without an arena.
func SweepCutParInto(g graph.Graph, vec *sparse.Map, procs int, res *workspace.Result) SweepResult {
	procs = parallel.ResolveProcs(procs)
	order := sweepOrder(procs, g, vec, res)
	N := len(order)
	if N == 0 {
		return emptySweep()
	}
	rank := rankTable(procs, order, res)
	// Per-edge contributions. Each undirected edge inside the support is
	// visited twice; only the visit from the lower-ranked endpoint
	// contributes (+1 at its rank, -1 at the partner's), matching the
	// paper's case (a) / case (b) split. The edge pass collects no output
	// frontier, and its prefix-sum scratch comes from the arena too, so the
	// pooled sweep's edge traversal allocates nothing support-sized.
	cutDelta := resInt64s(res, N+1)
	ligra.EdgeApplyIndexedScratch(procs, g, ligra.FromIDs(order),
		resUint64s(res, N), resUint64s(res, N),
		func(_ int, s, d uint32) {
			rs := int(rank.Get(s)) - 1
			rd := int(rank.Get(d)) - 1
			if rd < 0 {
				rd = N // outside the support: rank N+1 in the paper's terms
			}
			if rs < rd {
				atomic.AddInt64(&cutDelta[rs], 1)
				if rd < N {
					atomic.AddInt64(&cutDelta[rd], -1)
				}
			}
		})
	cuts := resInt64s(res, N)
	parallel.ScanInclusive(procs, cutDelta[:N], cuts)
	return sweepFromCuts(g, order, cuts, procs, res)
}

// resInt64s, resUint64s and resFloat64s borrow a zeroed slice from res,
// falling back to a fresh allocation when no arena is configured.
func resInt64s(res *workspace.Result, n int) []int64 {
	if res != nil {
		return res.Int64s(n)
	}
	return make([]int64, n)
}

func resUint64s(res *workspace.Result, n int) []uint64 {
	if res != nil {
		return res.Uint64s(n)
	}
	return make([]uint64, n)
}

func resFloat64s(res *workspace.Result, n int) []float64 {
	if res != nil {
		return res.Float64s(n)
	}
	return make([]float64, n)
}

func resInts(res *workspace.Result, n int) []int {
	if res != nil {
		return res.Ints(n)
	}
	return nil // FilterIndexInto allocates on demand
}

// SweepCutParSortInto is the faithful Theorem 1 parallel sweep: it
// materializes Z (two pairs per directed edge of the support),
// integer-sorts it by rank with the parallel radix sort, prefix-sums the
// pair values, and reads the per-rank crossing count off the last pair of
// each rank group. The result and all of its scratch — the sweep order, the
// rank table, the Z pair array and its prefix sums, the boundary index
// list, the per-rank crossing counts — are borrowed from res (nil =
// allocate fresh). Note that Z is volume-sized (two pairs per support
// edge), so the arena's uint64 slab grows to the sweep's edge volume and
// stays that size for recycling; results are bit-identical with and
// without an arena.
func SweepCutParSortInto(g graph.Graph, vec *sparse.Map, procs int, res *workspace.Result) SweepResult {
	procs = parallel.ResolveProcs(procs)
	order := sweepOrder(procs, g, vec, res)
	N := len(order)
	if N == 0 {
		return emptySweep()
	}
	rank := rankTable(procs, order, res)
	// Offsets into Z: vertex at rank i contributes 2*d(v) pairs.
	degs := resUint64s(res, N)
	parallel.For(procs, N, 0, func(i int) { degs[i] = 2 * uint64(g.Degree(order[i])) })
	offs := resUint64s(res, N)
	zlen := parallel.ScanExclusive(procs, degs, offs)
	// Pack each pair into a uint64: rank in the low 32 bits (the radix sort
	// key), value+1 in bits 32..33 riding along.
	z := resUint64s(res, int(zlen))
	parallel.ForRange(procs, N, 16, func(lo, hi int) {
		var adj []uint32
		for i := lo; i < hi; i++ {
			v := order[i]
			rv := uint64(i + 1)
			o := offs[i]
			ns := g.NeighborsInto(adj, v)
			adj = ns
			for _, w := range ns {
				rw := uint64(rank.Get(w)) // 0 when absent
				if rw == 0 {
					rw = uint64(N + 1)
				}
				if rw > rv {
					z[o] = rv | (2 << 32)   // (+1, rv)
					z[o+1] = rw | (0 << 32) // (-1, rw)
				} else {
					z[o] = rv | (1 << 32)   // (0, rv)
					z[o+1] = rw | (1 << 32) // (0, rw)
				}
				o += 2
			}
		}
	})
	parallel.RadixSortUint64Scratch(procs, z, resUint64s(res, int(zlen)), parallel.KeyBitsFor(uint64(N+1)))
	// Prefix sums over the pair values.
	vals := resInt64s(res, int(zlen))
	parallel.For(procs, int(zlen), 4096, func(i int) {
		vals[i] = int64(z[i]>>32) - 1
	})
	sums := resInt64s(res, int(zlen))
	parallel.ScanInclusive(procs, vals, sums)
	// The crossing count of S_i is the running sum at the last pair with
	// rank i; ranks with no pairs (zero-degree vertices) inherit the
	// previous rank's count.
	lastIdx := parallel.FilterIndexInto(procs, int(zlen), resInts(res, int(zlen)), func(j int) bool {
		return j+1 == int(zlen) || z[j]&0xffffffff != z[j+1]&0xffffffff
	})
	cuts := resInt64s(res, N)
	for i := range cuts {
		cuts[i] = -1
	}
	for _, j := range lastIdx {
		r := int(z[j] & 0xffffffff) // 1-based
		if r <= N {
			cuts[r-1] = sums[j]
		}
	}
	var prev int64
	for i := range cuts {
		if cuts[i] < 0 {
			cuts[i] = prev
		}
		prev = cuts[i]
	}
	return sweepFromCuts(g, order, cuts, procs, res)
}

// sweepFromCuts computes prefix volumes and conductances from per-prefix
// crossing counts, selects the minimum, and assembles the result; the
// prefix arrays are borrowed from res when one is configured.
func sweepFromCuts(g graph.Graph, order []uint32, cuts []int64, procs int, res *workspace.Result) SweepResult {
	N := len(order)
	degs := resUint64s(res, N)
	parallel.For(procs, N, 0, func(i int) { degs[i] = uint64(g.Degree(order[i])) })
	vols := resUint64s(res, N)
	parallel.ScanInclusive(procs, degs, vols)
	totalVol := g.TotalVolume()
	prefix := resFloat64s(res, N)
	parallel.For(procs, N, 2048, func(i int) {
		prefix[i] = graph.ConductanceFrom(totalVol, vols[i], uint64(cuts[i]))
	})
	best, _ := parallel.MinIndexFunc(procs, N, func(i int) float64 { return prefix[i] })
	return finishSweep(order, prefix, best, vols[best], uint64(cuts[best]))
}

// finishSweep packages a sweep result given the chosen prefix index and its
// precomputed volume and cut.
func finishSweep(order []uint32, prefix []float64, best int, vol, cut uint64) SweepResult {
	return SweepResult{
		Cluster:           order[:best+1],
		Conductance:       prefix[best],
		Volume:            vol,
		Cut:               cut,
		Order:             order,
		PrefixConductance: prefix,
	}
}
