// Package core implements the paper's local graph clustering algorithms
// (§3). Each diffusion has one parallel entry point and one sequential
// baseline — the pair the paper's Table 3 measures against each other:
//
//   - Nibble: the truncated lazy random walk of Spielman & Teng [44, 45]
//     (NibbleRun, NibbleSeq; §3.2, Figure 3, Theorem 2).
//   - PR-Nibble: the approximate-PageRank push algorithm of Andersen, Chung
//     & Lang [2], with both the original and the paper's optimized update
//     rule (PRNibbleRun, PRNibbleSeq; §3.3, Figures 5–6, Theorem 3), the
//     priority-queue sequential variant, and the β-fraction parallel
//     variant.
//   - HK-PR: the deterministic heat kernel PageRank of Kloster & Gleich
//     [24] (HKPRRun, HKPRSeq; §3.4, Figure 7, Theorem 4).
//   - rand-HK-PR: the randomized heat kernel PageRank of Chung & Simpson
//     [10] (RandHKPRRun, RandHKPRSeq; §3.5, Theorem 5), plus the naive
//     contended aggregation the paper reports as a negative result.
//   - Sweep cut: the rounding procedure that turns a diffusion vector into
//     a cluster, sequential and work-efficient parallel (SweepCutSeqInto,
//     SweepCutParInto, SweepCutParSortInto; §3.1, Theorem 1).
//   - NCP: network community profiles built from many PR-Nibble sweeps
//     (§4, Figure 12).
//
// All diffusions take a seed set (footnote 5 of the paper: the initial
// unit of mass is split evenly over the seeds; duplicates are ignored, and
// an empty or out-of-range set panics) and return a sparse vector suitable
// for a sweep cut. Every parallel entry point takes a worker count procs,
// directly or through RunConfig (procs <= 0 uses all cores, procs == 1 runs
// the parallel algorithm's sequential schedule, the paper's T1).
package core

import (
	"fmt"

	"parcluster/internal/graph"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// Stats reports the work counters the paper's evaluation tables rely on.
type Stats struct {
	// Pushes counts vertex push/processing operations. For PR-Nibble this
	// is exactly the paper's Table 1 push count; for Nibble and HK-PR it
	// counts frontier-vertex processings; for rand-HK-PR it counts walks.
	Pushes int64 `json:"pushes"`
	// Iterations counts parallel rounds (or, for the sequential queue
	// algorithms, queue pops — which equals Pushes there).
	Iterations int `json:"iterations"`
	// EdgesTouched counts edge traversals, the quantity the work bounds
	// (Theorems 2–5) speak about.
	EdgesTouched int64 `json:"edges_touched"`
}

// String renders the counters in a compact single-line form for logs.
func (s Stats) String() string {
	return fmt.Sprintf("pushes=%d iterations=%d edges=%d", s.Pushes, s.Iterations, s.EdgesTouched)
}

// checkSeed panics with a descriptive error if the seed vertex is out of
// range; diffusing from a nonexistent vertex is always a programming error.
func checkSeed(g graph.Graph, seed uint32) {
	if int(seed) >= g.NumVertices() {
		panic(fmt.Sprintf("core: seed vertex %d out of range [0,%d)", seed, g.NumVertices()))
	}
}

// normalizeSeeds validates a seed set (footnote 5 of the paper: all
// algorithms extend to seed sets with multiple vertices), removing
// duplicates while preserving order. It panics on an empty set or an
// out-of-range vertex.
func normalizeSeeds(g graph.Graph, seeds []uint32) []uint32 {
	if len(seeds) == 0 {
		panic("core: empty seed set")
	}
	out := make([]uint32, 0, len(seeds))
	seen := make(map[uint32]bool, len(seeds))
	for _, s := range seeds {
		checkSeed(g, s)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// growTo returns s extended (reallocating if needed) to length n; contents
// are unspecified. Used for per-iteration scratch arrays that should not
// reallocate every round.
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, n+n/2)
	}
	return s[:n]
}

// vecFromTableInto snapshots a concurrent table (hash or dense) into the
// sequential sparse map the sweep cut consumes: res's recycled map when res
// is non-nil (the pooled result path; see RunConfig.Result) and a fresh map
// otherwise. Explicit zeros are dropped either way (entries whose
// mass cancelled exactly, e.g. a residual fully pushed out). The returned
// map's memory belongs to the arena: it is valid until res is Reset or
// Released.
func vecFromTableInto(t sparse.Vector, res *workspace.Result) *sparse.Map {
	var out *sparse.Map
	if res != nil {
		out = res.Map(t.Len())
	} else {
		out = sparse.NewMap(t.Len())
	}
	t.ForEach(func(k uint32, v float64) {
		if v != 0 {
			out.Set(k, v)
		}
	})
	return out
}
