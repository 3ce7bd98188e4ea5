package core

// property_test.go is the property-based conformance suite of the pooled
// result path (ISSUE 4): on seeded random graphs — Erdős–Rényi and planted
// partition (SBM), n <= 512 — it checks, across frontier modes and worker
// counts,
//
//  1. sweep-cut correctness against a brute-force O(N*m) reference: every
//     prefix conductance reported by the parallel sweep equals a from-
//     scratch recomputation via graph.Conductance, and the winning prefix
//     is the argmin;
//  2. pooled/unpooled equivalence: runs through a workspace pool and a
//     result arena return bit-identical vectors and sweeps as fresh
//     allocations, including when the same arena is recycled run after run;
//  3. PR-Nibble mass conservation (§3.3): ‖p‖₁ + ‖r‖₁ <= 1 + ε at
//     termination, for every frontier mode and procs in {1, 2, 8}.

import (
	"math"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/rng"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// erdosRenyi builds a seeded G(n, p) graph with p chosen for the given
// expected average degree.
func erdosRenyi(n int, avgDeg float64, seed uint64) *graph.CSR {
	r := rng.New(seed)
	prob := avgDeg / float64(n-1)
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < prob {
				edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
			}
		}
	}
	return graph.FromEdges(1, n, edges)
}

// propertyGraphs is the suite's graph zoo: ER at three sizes plus two
// planted-partition graphs whose ground-truth communities give the sweeps
// something real to find.
func propertyGraphs(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	return map[string]*graph.CSR{
		"er-32":    erdosRenyi(32, 6, 1),
		"er-128":   erdosRenyi(128, 8, 2),
		"er-512":   erdosRenyi(512, 10, 3),
		"sbm-4x32": gen.SBM(1, []int{32, 32, 32, 32}, 10, 2, 4),
		"sbm-2x64": gen.SBM(1, []int{64, 64}, 12, 1, 5),
	}
}

// firstSeed returns a deterministic non-isolated seed vertex.
func firstSeed(t *testing.T, g *graph.CSR) uint32 {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 0 {
			return uint32(v)
		}
	}
	t.Skip("graph has no edges")
	return 0
}

// requireMapsIdentical asserts two sparse vectors carry the same keys with
// bit-identical float values.
func requireMapsIdentical(t *testing.T, name string, want, got *sparse.Map) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: support size %d != %d", name, want.Len(), got.Len())
	}
	want.ForEach(func(k uint32, v float64) {
		gv := got.Get(k)
		if math.Float64bits(v) != math.Float64bits(gv) {
			t.Fatalf("%s: entry %d: %v (bits %x) != %v (bits %x)", name, k, v, math.Float64bits(v), gv, math.Float64bits(gv))
		}
	})
}

// requireSweepsIdentical asserts two sweep results are exactly equal.
func requireSweepsIdentical(t *testing.T, name string, want, got SweepResult) {
	t.Helper()
	if math.Float64bits(want.Conductance) != math.Float64bits(got.Conductance) ||
		want.Volume != got.Volume || want.Cut != got.Cut {
		t.Fatalf("%s: best (phi=%v vol=%d cut=%d) != (phi=%v vol=%d cut=%d)",
			name, want.Conductance, want.Volume, want.Cut, got.Conductance, got.Volume, got.Cut)
	}
	if len(want.Order) != len(got.Order) || len(want.Cluster) != len(got.Cluster) {
		t.Fatalf("%s: order/cluster lengths differ: %d/%d vs %d/%d",
			name, len(want.Order), len(want.Cluster), len(got.Order), len(got.Cluster))
	}
	for i := range want.Order {
		if want.Order[i] != got.Order[i] {
			t.Fatalf("%s: order[%d] %d != %d", name, i, want.Order[i], got.Order[i])
		}
	}
	for i := range want.PrefixConductance {
		if math.Float64bits(want.PrefixConductance[i]) != math.Float64bits(got.PrefixConductance[i]) {
			t.Fatalf("%s: prefix[%d] %v != %v", name, i, want.PrefixConductance[i], got.PrefixConductance[i])
		}
	}
}

// TestPropertySweepMatchesBruteForce checks every prefix conductance the
// parallel sweep reports against an independent O(N*m) recomputation from
// the graph itself, plus the argmin selection and the winner's volume/cut.
func TestPropertySweepMatchesBruteForce(t *testing.T) {
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			vec, _ := PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, RunConfig{Procs: 4})
			if vec.Len() == 0 {
				t.Fatalf("empty diffusion vector")
			}
			res := SweepCutParInto(g, vec, 4, nil)
			N := len(res.Order)
			if N == 0 {
				t.Fatalf("empty sweep order")
			}
			best, bestPhi := -1, math.Inf(1)
			for i := 0; i < N; i++ {
				prefix := res.Order[:i+1]
				phi := g.Conductance(prefix)
				if phi != res.PrefixConductance[i] {
					t.Fatalf("prefix %d: sweep says phi=%v, brute force says %v", i, res.PrefixConductance[i], phi)
				}
				if phi < bestPhi {
					best, bestPhi = i, phi
				}
			}
			if bestPhi != res.Conductance {
				t.Fatalf("best conductance %v != brute-force min %v (at prefix %d)", res.Conductance, bestPhi, best)
			}
			if len(res.Cluster) != best+1 {
				t.Fatalf("cluster size %d, brute-force argmin prefix %d", len(res.Cluster), best+1)
			}
			if vol := g.Volume(res.Cluster); vol != res.Volume {
				t.Fatalf("cluster volume %d != brute-force %d", res.Volume, vol)
			}
			if cut := g.Boundary(res.Cluster); cut != res.Cut {
				t.Fatalf("cluster cut %d != brute-force %d", res.Cut, cut)
			}
		})
	}
}

// TestPropertyPooledMatchesUnpooled checks the tentpole's core promise: the
// pooled result path (workspace pool + recycled result arena + arena-backed
// sweep) produces bit-identical output to fresh allocation, for every
// algorithm that snapshots a vector, across frontier modes, and across
// repeated runs through the same recycled arena.
func TestPropertyPooledMatchesUnpooled(t *testing.T) {
	algos := map[string]func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats){
		"prnibble": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, cfg)
		},
		"nibble": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return NibbleRun(g, []uint32{seed}, 1e-7, 15, cfg)
		},
		"hkpr": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return HKPRRun(g, []uint32{seed}, 10, 15, 1e-6, cfg)
		},
		"randhk": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return RandHKPRRun(g, []uint32{seed}, 10, 10, 2000, 42, cfg)
		},
	}
	modes := []FrontierMode{FrontierAuto, FrontierSparse, FrontierDense}
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			pool := workspace.NewPool(g.NumVertices())
			arena := pool.AcquireResult()
			defer arena.Release()
			for algoName, run := range algos {
				for _, mode := range modes {
					label := algoName + "/" + mode.String()
					want, wantSt := run(g, seed, RunConfig{Procs: 4, Frontier: mode})
					wantSweep := SweepCutParInto(g, want, 4, nil)
					// Two pooled runs through the same arena: the second
					// recycles state the first left behind, which is exactly
					// the serving steady state.
					for round := 0; round < 2; round++ {
						arena.Reset()
						got, gotSt := run(g, seed, RunConfig{
							Procs: 4, Frontier: mode, Workspace: pool, Result: arena,
						})
						if wantSt != gotSt {
							t.Fatalf("%s round %d: stats %+v != %+v", label, round, wantSt, gotSt)
						}
						requireMapsIdentical(t, label, want, got)
						gotSweep := SweepCutParInto(g, got, 4, arena)
						requireSweepsIdentical(t, label, wantSweep, gotSweep)
					}
				}
			}
		})
	}
}

// TestPropertyPRNibbleMassConservation pins the §3.3 invariant: at
// termination the mass vector p and residual r of PR-Nibble satisfy
// ‖p‖₁ + ‖r‖₁ <= 1 + ε (the push rule only moves or removes mass, never
// creates it), for every frontier mode and worker count, pooled and not.
func TestPropertyPRNibbleMassConservation(t *testing.T) {
	const eps = 1e-9
	modes := []FrontierMode{FrontierAuto, FrontierSparse, FrontierDense}
	procsList := []int{1, 2, 8}
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			pool := workspace.NewPool(g.NumVertices())
			for _, mode := range modes {
				for _, procs := range procsList {
					for _, pooled := range []bool{false, true} {
						var residual *sparse.Map
						prNibbleResidualSink = func(r *sparse.Map) { residual = r }
						cfg := RunConfig{Procs: procs, Frontier: mode}
						if pooled {
							cfg.Workspace = pool
						}
						p, _ := PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, cfg)
						prNibbleResidualSink = nil
						if residual == nil {
							t.Fatalf("mode %v procs %d: residual sink never called", mode, procs)
						}
						pMass, rMass := p.Sum(), residual.Sum()
						if total := pMass + rMass; total > 1+eps {
							t.Fatalf("mode %v procs %d pooled=%t: ‖p‖+‖r‖ = %v + %v = %v > 1+ε",
								mode, procs, pooled, pMass, rMass, total)
						}
						if pMass <= 0 {
							t.Fatalf("mode %v procs %d: no mass settled (‖p‖ = %v)", mode, procs, pMass)
						}
					}
				}
			}
		})
	}
}
