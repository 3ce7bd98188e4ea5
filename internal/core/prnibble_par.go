package core

import (
	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// prnibble_par.go implements the parallel PR-Nibble of §3.3 (Figures 5–6):
// every iteration pushes from all vertices with r(v) >= eps*d(v)
// simultaneously, reading residuals as of the start of the iteration
// (synchronous double buffering — the paper's r/r' pair). Theorem 3: the
// total work remains O(1/(eps*alpha)) with either update rule, even though
// the parallel schedule performs somewhat more pushes than the sequential
// one (Table 1 measures the inflation at <= ~1.6x).
//
// Residual updates are accumulated in a fresh per-iteration *delta* table
// rather than a copy of r: the self-update is expressed as a negative
// delta, making every update a commutative fetch-and-add, and the merge
// r += delta touches only the entries written this iteration. This realizes
// the prose semantics of §3.3 ("r' is set to r at the beginning of an
// iteration") without copying r, preserving both mass and the per-iteration
// locality bound. See DESIGN.md §1 note 1.
//
// The iteration skeleton (volume bound, delta reset, share hoisting, edge
// push, delta merge, threshold filter) lives in the shared frontier engine
// (engine.go), which also auto-selects the sparse or dense edge traversal
// and vector representation per FrontierMode.

// PRNibbleRun runs parallel PR-Nibble from a seed set (footnote 5 of the
// paper: the initial residual is split evenly over the seeds, and larger
// seed sets grow the frontiers and with them the available parallelism).
// beta in (0, 1] selects the β-fraction variant from the end of §3.3: each
// iteration processes only the top β-fraction of above-threshold vertices
// by r(v)/d(v) (beta = 1 processes all of them, the Figure 5/6 algorithm).
func PRNibbleRun(g graph.Graph, seeds []uint32, alpha, eps float64, rule PushRule, beta float64, cfg RunConfig) (*sparse.Map, Stats) {
	seeds = normalizeSeeds(g, seeds)
	procs := parallel.ResolveProcs(cfg.Procs)
	ws := acquireWorkspace(cfg.Workspace, g.NumVertices())
	vec, st := prNibblePush(g, seeds, alpha, eps, rule, procs, beta, cfg.Frontier, ws, cfg.Result, cfg.Cancel, cfg.Observer)
	// Release only on the non-panicking path (see acquireWorkspace); the
	// result vector was snapshotted out of the workspace by the body.
	ws.Release(procs)
	return vec, st
}

// prNibbleResidualSink, when non-nil, receives a snapshot of the final
// residual vector r of every PR-Nibble push loop. It exists solely for the
// property-based conformance suite, which checks the §3.3 mass-conservation
// invariant ‖p‖₁ + ‖r‖₁ <= 1 + ε — the production path never snapshots r.
var prNibbleResidualSink func(*sparse.Map)

// prNibblePush is the PR-Nibble push loop proper, run entirely against
// scratch state borrowed from ws; the result is snapshotted into res when
// one is configured.
func prNibblePush(g graph.Graph, seeds []uint32, alpha, eps float64, rule PushRule, procs int, beta float64, mode FrontierMode, ws *workspace.Workspace, res *workspace.Result, cancel <-chan struct{}, obs Observer) (*sparse.Map, Stats) {
	if beta <= 0 || beta > 1 {
		beta = 1
	}
	var st Stats
	pGain, edgeShare, selfKeep := rule.coefficients(alpha)
	n := g.NumVertices()
	p := newVec(n, mode, 16, ws)
	r := newVec(n, mode, len(seeds), ws)
	w := 1 / float64(len(seeds))
	for _, s := range seeds {
		r.Add(s, w)
	}
	above := func(v uint32) bool {
		d := g.Degree(v)
		return d > 0 && r.Get(v) >= eps*float64(d)
	}
	frontier := ligra.VertexFilterInto(procs, ligra.FromIDs(seeds), nil, above)
	// The β-fraction comparator is loop-invariant (it reads r through the
	// captured variable); building it once keeps the per-round ranking free
	// of the closure allocations the generic sort would otherwise force.
	var betaLess func(a, b uint32) bool
	if beta < 1 {
		betaLess = func(a, b uint32) bool {
			sa := r.Get(a) / float64(g.Degree(a))
			sb := r.Get(b) / float64(g.Degree(b))
			if sa != sb {
				return sa > sb
			}
			return a < b
		}
	}
	delta := newVec(n, mode, 16, ws)
	eng := newFrontierEngine(g, procs, mode, &st, ws, obs)
	// The spec is loop-invariant (its closures read r/p/delta through the
	// captured variables), so build it once: a per-round literal costs two
	// heap-escaping closures every synchronous round.
	spec := roundSpec{
		scratch: delta,
		before:  func(size int, _ uint64) { p.reserve(size) },
		source: func(_ int, v uint32) float64 {
			rv := r.Get(v)
			p.Add(v, pGain*rv)
			// Self-update as a commutative delta: r[v] becomes
			// selfKeep*rv, i.e. changes by (selfKeep-1)*rv.
			delta.Add(v, (selfKeep-1)*rv)
			return edgeShare * rv / float64(g.Degree(v))
		},
	}
	for !frontier.IsEmpty() {
		if cancelled(cancel) {
			break // partial vector; see RunConfig.Cancel
		}
		if beta < 1 && frontier.Size() > 1 {
			frontier = topBetaFraction(procs, frontier, beta, ws, betaLess)
		}
		touched := eng.round(frontier, spec)
		// Merge the deltas into r; only touched entries change, so the next
		// frontier is a filter over exactly the touched keys.
		eng.merge(r, touched, delta)
		frontier = eng.filter(touched, above)
	}
	if prNibbleResidualSink != nil {
		prNibbleResidualSink(vecFromTableInto(r, nil))
	}
	return vecFromTableInto(p, res), st
}

// topBetaFraction returns the ceil(beta*|frontier|) vertices ranked best by
// less — largest r(v)/d(v) first, ties toward the smaller vertex ID so the
// schedule is deterministic — implementing the β-fraction work/parallelism
// trade-off of §3.3. The ranking buffer and the merge scratch are borrowed
// from the workspace and the comparator is built once per run, so a
// steady-state β-fraction round allocates nothing; the returned subset
// aliases the buffer only until the round's filter builds the next frontier
// from separate storage.
func topBetaFraction(procs int, frontier ligra.VertexSubset, beta float64, ws *workspace.Workspace, less func(a, b uint32) bool) ligra.VertexSubset {
	src := frontier.IDs()
	keep := int(beta*float64(len(src)) + 0.999999)
	if keep < 1 {
		keep = 1
	}
	if keep >= len(src) {
		return frontier
	}
	ids := append(ws.SortIDs(), src...)
	var scratch []uint32
	if need := parallel.SortScratchLen(procs, len(ids)); need > 0 {
		scratch = ws.SortScratch(need)
	}
	parallel.SortScratch(procs, ids, scratch, less)
	return ligra.FromIDs(ids[:keep])
}
