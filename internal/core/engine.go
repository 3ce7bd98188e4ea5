package core

import (
	"fmt"

	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// engine.go implements the shared frontier engine behind the synchronous
// diffusion loops (Nibble, PR-Nibble, HK-PR, evolving sets). Every one of
// those algorithms repeats the same per-iteration bookkeeping — compute the
// frontier volume, reset/reserve a scratch accumulator to the
// |F| + vol(F) locality bound, run a vertex phase that hoists a per-source
// share, run an edge phase that pushes the share along every frontier edge,
// collect the touched vertices, optionally merge them into a persistent
// vector, and filter them into the next frontier — differing only in the
// push rule plugged into the middle. The engine owns that loop skeleton
// once, and with it the adaptive sparse/dense decisions:
//
//   - Edge phase: per round, the engine picks Ligra's sparse (ID-list,
//     degree-prefix-sum) or dense (bitmap scan over the CSR) traversal via
//     the direction heuristic |F| + vol(F) > (n + 2m)/k, reusing one bitmap
//     buffer across rounds. Per-source shares live in a frontier-indexed
//     array (sparse) or a vertex-indexed array (dense) so the edge phase
//     always reads them with one array load per edge.
//   - Vectors: residual/mass accumulators are adaptive (vec): they start as
//     phase-concurrent hash tables and promote — sticky, at a phase
//     boundary — to flat Dense arrays once their support bound crosses
//     n/vecPromoteFrac, after which every Get/Add is an array operation.
//
// Both decisions are representation-only: the same pushes run with the same
// values in every mode, so clusters and Stats are identical across
// FrontierMode settings and worker counts (the cross-mode determinism suite
// pins this down). See DESIGN.md §4.

// FrontierMode selects the frontier engine's representation strategy.
type FrontierMode uint8

const (
	// FrontierAuto switches between sparse and dense per iteration using
	// Ligra's direction heuristic, and promotes vectors to dense arrays
	// when their support bound crosses the promotion threshold.
	FrontierAuto FrontierMode = iota
	// FrontierSparse pins the sparse representations: ID-list frontiers and
	// hash-table vectors (the pre-engine behaviour).
	FrontierSparse
	// FrontierDense pins the dense representations: bitmap-scan edge
	// traversal and flat array vectors from the start.
	FrontierDense
)

// String returns the mode's wire spelling ("auto", "sparse", "dense").
func (m FrontierMode) String() string {
	switch m {
	case FrontierSparse:
		return "sparse"
	case FrontierDense:
		return "dense"
	default:
		return "auto"
	}
}

// ParseFrontierMode converts a wire spelling to a FrontierMode. The empty
// string means FrontierAuto.
func ParseFrontierMode(s string) (FrontierMode, error) {
	switch s {
	case "", "auto":
		return FrontierAuto, nil
	case "sparse":
		return FrontierSparse, nil
	case "dense":
		return FrontierDense, nil
	}
	return FrontierAuto, fmt.Errorf("core: unknown frontier mode %q (want auto, sparse or dense)", s)
}

// RunConfig bundles the execution environment of one parallel diffusion:
// the worker count, the frontier representation strategy, and the workspace
// pool to borrow graph-sized scratch state from. The zero value runs with
// all cores, the auto frontier mode, and per-run (unpooled) scratch
// allocation — exactly the pre-workspace behaviour.
type RunConfig struct {
	// Procs is the worker count (<= 0 = all cores; 1 = the paper's T1
	// sequential schedule of the parallel algorithm).
	Procs int
	// Frontier selects the engine's frontier representation strategy.
	Frontier FrontierMode
	// Workspace, when non-nil, is the pool the run borrows its graph-sized
	// scratch state (flat vectors, share array, frontier bitmap and ID
	// buffers) from instead of allocating per call. The pool must match the
	// graph's vertex count; a mismatched pool is ignored (the run falls
	// back to fresh allocation) rather than corrupting someone else's
	// arenas. Results are bit-identical with and without a pool.
	Workspace *workspace.Pool
	// Result, when non-nil, is the arena the run's *result* is snapshotted
	// into (the vecFromTableInto map, and — via SweepCutParInto — the sweep
	// arrays downstream). Unlike Workspace scratch, which the run itself
	// releases, the result must outlive the run: the caller owns the arena
	// and releases it after the last read of the returned vector, so the
	// checkout is the caller's, not the kernel's. Any pool's arena works
	// (result state is support-sized, not graph-sized). Results are
	// bit-identical with and without an arena.
	Result *workspace.Result
	// Cancel, when non-nil, is observed at round boundaries: once it fires
	// (a deadline expired, a client went away), the run stops at the next
	// synchronous round and returns the partial vector computed so far —
	// no error, no panic, workspaces released normally. Callers that must
	// not serve partial answers check their own deadline/context after the
	// run returns (the service layer does exactly that and discards the
	// partial result without caching it). A nil channel never cancels.
	Cancel <-chan struct{}
	// Observer, when non-nil, receives one event per synchronous round from
	// the frontier engine — the per-round breakdown of the Stats totals,
	// plus the engine's sparse/dense traversal decision. A nil observer
	// costs one pointer comparison per round and zero allocations (the
	// AllocsPerRun test in observer_test.go pins this down). The observer
	// is called from the kernel's driving goroutine, synchronously between
	// rounds: implementations must be fast and must not block. rand-HK-PR
	// runs no rounds; it emits a single synthetic event summarizing the
	// whole walk phase.
	Observer Observer
}

// Observer receives per-round kernel telemetry from the frontier engine.
// One Round call per synchronous round, in round order.
type Observer interface {
	// Round reports one frontier round before its edge phase runs: the
	// 0-based round index, the frontier size |F| (== the vertex pushes the
	// round performs), the pushes and edges-touched vol(F) this round adds
	// to the run's Stats, and whether the engine selected the dense
	// (bitmap-scan) traversal.
	Round(round, frontier int, pushes, edges int64, dense bool)
}

// cancelled reports whether a cancellation channel has fired; a nil channel
// never cancels. Kernels call it once per synchronous round — cheap against
// a round's edge work, prompt enough that a cancelled diffusion stops
// within one round.
func cancelled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// acquireWorkspace checks a workspace for a universe of n vertices out of
// pool, falling back to a fresh unpooled workspace when no (or a
// wrong-universe) pool is configured. The caller owns the result and must
// Release it on the non-panicking path only: a workspace abandoned by a
// panic mid-phase may hold half-claimed entries whose reset would be
// incomplete, so it is left to the GC instead of being recycled.
func acquireWorkspace(pool *workspace.Pool, n int) *workspace.Workspace {
	if pool == nil || pool.Universe() != n {
		return workspace.New(n)
	}
	return pool.Acquire()
}

// vecPromoteFrac is the vector promotion threshold denominator: an adaptive
// vector switches from hash table to flat array when its support bound
// exceeds n/vecPromoteFrac. At that point the hash table would occupy a
// comparable number of cache lines anyway, so the O(n) array pays for
// itself immediately in lookup cost.
const vecPromoteFrac = 8

// vec is an adaptive diffusion vector: a sparse.Table that starts as a
// phase-concurrent hash table and, in auto mode, promotes (sticky) to a
// flat Dense array once a reset/reserve bound crosses n/vecPromoteFrac.
// All phase-concurrent operations delegate to the embedded Table; reset and
// reserve are the phase boundaries where promotion may happen. Dense
// backings are borrowed from the run's workspace, so in the pooled steady
// state promotion (and dense-mode construction) allocates nothing.
type vec struct {
	sparse.Table
	n    int
	mode FrontierMode
	ws   *workspace.Workspace
}

// newVec builds an adaptive vector for a graph with n vertices, borrowing
// any dense backing from ws.
func newVec(n int, mode FrontierMode, capacity int, ws *workspace.Workspace) *vec {
	if mode == FrontierDense {
		return &vec{Table: ws.Dense(), n: n, mode: mode, ws: ws}
	}
	return &vec{Table: sparse.NewConcurrent(capacity), n: n, mode: mode, ws: ws}
}

// shouldPromote reports whether a support bound warrants switching the
// backing table to a Dense array.
func (v *vec) shouldPromote(bound int) bool {
	if v.mode != FrontierAuto || v.n == 0 || bound <= v.n/vecPromoteFrac {
		return false
	}
	_, isHash := v.Table.(*sparse.ConcurrentMap)
	return isHash
}

// reset clears the vector and ensures capacity for the per-phase bound,
// promoting first when the bound crosses the threshold (phase boundary
// only). A reset-promotion discards the old entries anyway, so it installs
// an empty borrowed Dense instead of copying them.
func (v *vec) reset(p, bound int) {
	if v.shouldPromote(bound) {
		v.Table = v.ws.Dense()
		return
	}
	v.Table.Reset(p, bound)
}

// reserve grows the vector so that extra more entries fit, promoting (with
// the current entries copied over) when the resulting support bound
// crosses the threshold (phase boundary only).
func (v *vec) reserve(extra int) {
	if v.shouldPromote(v.Table.Len() + extra) {
		v.Table = sparse.PromoteToDenseInto(v.ws.Dense(), v.Table.(*sparse.ConcurrentMap))
		return
	}
	v.Table.Reserve(extra)
}

// frontierEngine drives the shared per-round bookkeeping for one diffusion
// run. It is not safe for concurrent use; each diffusion creates its own,
// wired to the run's workspace, from which all graph-sized scratch (the
// vertex-indexed share array, the frontier bitmap, the filter ID buffer) is
// borrowed lazily — a run that never goes dense never pays for any of it.
type frontierEngine struct {
	g         graph.Graph
	procs     int
	mode      FrontierMode
	st        *Stats
	ws        *workspace.Workspace
	obs       Observer  // per-round telemetry sink; nil = disabled
	shares    []float64 // per-source state, frontier-indexed (sparse rounds)
	sharesV   []float64 // per-source state, vertex-indexed (dense rounds)
	bits      []uint64  // reused frontier-bitmap buffer (dense rounds)
	wentDense bool      // some round took the dense path (filter-buffer policy)
}

func newFrontierEngine(g graph.Graph, procs int, mode FrontierMode, st *Stats, ws *workspace.Workspace, obs Observer) *frontierEngine {
	return &frontierEngine{g: g, procs: procs, mode: mode, st: st, ws: ws, obs: obs}
}

// useDense resolves the engine's mode to a per-round traversal decision.
func (e *frontierEngine) useDense(size int, vol uint64) bool {
	switch e.mode {
	case FrontierSparse:
		return false
	case FrontierDense:
		return true
	default:
		return ligra.OverDenseThreshold(e.g, size, vol)
	}
}

// roundSpec plugs one algorithm's push rule into the engine's round.
type roundSpec struct {
	// scratch receives the edge-phase pushes. It is reset to the
	// |F| + vol(F) bound at the start of the round (or reserved by that
	// much when accumulate is set, for tables that persist across rounds).
	scratch    *vec
	accumulate bool
	// before, if non-nil, runs after the scratch reset with the round's
	// frontier size and volume — the hook for auxiliary reservations (e.g.
	// PR-Nibble reserving its mass vector by |F|).
	before func(size int, vol uint64)
	// source runs once per frontier vertex (the vertex phase). It may
	// side-effect other vectors and must return the per-edge share pushed
	// from v; the engine stores it so the edge phase reads it with one
	// array load per edge in either representation.
	source func(i int, v uint32) float64
	// skipTouched suppresses the touched-key collection for rounds whose
	// caller does not build a next frontier (e.g. HK-PR's last level).
	skipTouched bool
}

// round runs one synchronous frontier round: stats, scratch sizing, vertex
// phase, sparse- or dense-auto-selected edge phase (scratch.Add(dst, share)
// per frontier edge), and the touched-key collection. It returns the
// vertices whose scratch entries were touched this round — the candidate
// set for the caller's merge and next-frontier filter.
func (e *frontierEngine) round(frontier ligra.VertexSubset, spec roundSpec) []uint32 {
	size := frontier.Size()
	vol := frontier.Volume(e.procs, e.g)
	e.st.Pushes += int64(size)
	e.st.EdgesTouched += int64(vol)
	e.st.Iterations++
	dense := e.useDense(size, vol)
	if e.obs != nil {
		e.obs.Round(int(e.st.Iterations)-1, size, int64(size), int64(vol), dense)
	}
	bound := size + int(vol)
	if spec.accumulate {
		spec.scratch.reserve(bound)
	} else {
		spec.scratch.reset(e.procs, bound)
	}
	if spec.before != nil {
		spec.before(size, vol)
	}
	scratch := spec.scratch
	if dense {
		e.wentDense = true
		n := e.g.NumVertices()
		if e.sharesV == nil {
			e.sharesV = e.ws.Floats()
		}
		sharesV := e.sharesV
		ligra.VertexMapIndexed(e.procs, frontier, func(i int, v uint32) {
			sharesV[v] = spec.source(i, v)
		})
		if e.bits == nil {
			e.bits = e.ws.Bits()
		}
		fb := frontier.WithBitmap(e.procs, n, e.bits)
		e.bits = fb.Bits()
		ligra.EdgeApplyDense(e.procs, e.g, fb, func(src, dst uint32) {
			scratch.Add(dst, sharesV[src])
		})
	} else {
		e.shares = growTo(e.shares, size)
		shares := e.shares
		ligra.VertexMapIndexed(e.procs, frontier, func(i int, v uint32) {
			shares[i] = spec.source(i, v)
		})
		ligra.EdgeApplyIndexedScratch(e.procs, e.g, frontier, nil, nil, func(i int, _, dst uint32) {
			scratch.Add(dst, shares[i])
		})
	}
	if spec.skipTouched {
		return nil
	}
	return scratch.Keys(e.procs)
}

// merge folds a round's delta entries into a persistent vector:
// dst[v] += delta[v] for every touched v. Only touched entries change, so
// the caller's next frontier is a filter over exactly the touched keys.
func (e *frontierEngine) merge(dst *vec, touched []uint32, delta *vec) {
	dst.reserve(len(touched))
	parallel.For(e.procs, len(touched), 512, func(i int) {
		v := touched[i]
		dst.Add(v, delta.Get(v))
	})
}

// filter builds the next frontier: the touched vertices satisfying keep,
// in touched order. Once a run has gone dense — or when a recycled
// workspace already carries the buffer — the output is written into the
// workspace's frontier ID buffer instead of a fresh allocation. The single
// buffer alternates safely: its previous contents (the current frontier)
// are dead by the time filter runs, and the filter input is an
// accumulator's touched-key list, which never aliases the buffer.
func (e *frontierEngine) filter(touched []uint32, keep func(v uint32) bool) ligra.VertexSubset {
	var buf []uint32
	if e.wentDense || e.ws.HasIDs() {
		buf = e.ws.IDs()
	}
	return ligra.VertexFilterInto(e.procs, ligra.FromIDs(touched), buf, keep)
}
