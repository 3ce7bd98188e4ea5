package core

// frontier_test.go is the cross-mode determinism suite for the adaptive
// frontier engine: sparse, dense, and auto frontier modes must return
// identical clusters and identical Stats for PR-Nibble, HK-PR, and the
// evolving set process, at every worker count. The modes differ only in
// representation (ID-list + hash table vs bitmap + flat array), so the same
// set of pushes runs with the same per-push values in every configuration;
// these tests pin that contract down on the fixture graphs. (Accumulation
// order does differ across modes and schedules, so residual sums can in
// principle move by an ULP; like the existing par-vs-seq suites, the
// fixtures keep thresholds far from such boundaries, which is why exact
// Stats equality is assertable here. The evolving set process works on
// exact integers and is order-independent unconditionally.)

import (
	"math"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

func frontierModes() []FrontierMode {
	return []FrontierMode{FrontierSparse, FrontierDense, FrontierAuto}
}

func frontierProcs() []int { return []int{1, 2, 8} }

// frontierFixtures returns graphs spanning both traversal regimes: the
// caveman and community graphs keep frontiers small (sparse regime), while
// the dense barbell and the multi-seed runs below push |F| + vol(F) past
// the (n + 2m)/20 threshold so auto actually switches.
func frontierFixtures() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"caveman":   gen.Caveman(12, 8),
		"barbell":   gen.Barbell(20),
		"community": gen.CommunityGraph(1, 5000, 12, 6, 50, 200, 2.5, 23),
	}
}

// clusterOf sweeps a diffusion vector into a sorted cluster.
func clusterOf(t *testing.T, g *graph.CSR, vec *sparse.Map) ([]uint32, float64) {
	t.Helper()
	if vec.Len() == 0 {
		return nil, 1
	}
	res := SweepCutParInto(g, vec, 0, nil)
	return sortedU32(res.Cluster), res.Conductance
}

func sortedU32(s []uint32) []uint32 {
	out := append([]uint32(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sameCluster(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPRNibbleFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		// A multi-vertex seed set (footnote 5) inflates the frontiers into
		// the dense regime quickly.
		seeds := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
		base, baseSt := PRNibbleRun(g, seeds, 0.02, 1e-6, OptimizedRule, 1, RunConfig{Procs: 1, Frontier: FrontierSparse})
		baseCluster, basePhi := clusterOf(t, g, base)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				vec, st := PRNibbleRun(g, seeds, 0.02, 1e-6, OptimizedRule, 1, RunConfig{Procs: p, Frontier: mode})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				cluster, phi := clusterOf(t, g, vec)
				if !sameCluster(cluster, baseCluster) {
					t.Fatalf("%s mode=%v p=%d: cluster %v, want %v", name, mode, p, cluster, baseCluster)
				}
				if math.Abs(phi-basePhi) > 1e-12 {
					t.Fatalf("%s mode=%v p=%d: conductance %v, want %v", name, mode, p, phi, basePhi)
				}
				if ok, why := vectorsClose(base, vec, 1e-9); !ok {
					t.Fatalf("%s mode=%v p=%d: vectors differ: %s", name, mode, p, why)
				}
			}
		}
	}
}

func TestHKPRFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		seeds := []uint32{0, 1, 2, 3}
		base, baseSt := HKPRRun(g, seeds, 4, 15, 1e-6, RunConfig{Procs: 1, Frontier: FrontierSparse})
		baseCluster, basePhi := clusterOf(t, g, base)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				vec, st := HKPRRun(g, seeds, 4, 15, 1e-6, RunConfig{Procs: p, Frontier: mode})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				cluster, phi := clusterOf(t, g, vec)
				if !sameCluster(cluster, baseCluster) {
					t.Fatalf("%s mode=%v p=%d: cluster %v, want %v", name, mode, p, cluster, baseCluster)
				}
				if math.Abs(phi-basePhi) > 1e-12 {
					t.Fatalf("%s mode=%v p=%d: conductance %v, want %v", name, mode, p, phi, basePhi)
				}
			}
		}
	}
}

func TestEvolvingSetFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		base, baseSt := EvolvingSetPar(g, 0, EvolvingSetOptions{
			MaxIter: 40, Seed: 11, Procs: 1, Frontier: FrontierSparse,
		})
		baseSet := sortedU32(base.Set)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				res, st := EvolvingSetPar(g, 0, EvolvingSetOptions{
					MaxIter: 40, Seed: 11, Procs: p, Frontier: mode,
				})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				if !sameCluster(sortedU32(res.Set), baseSet) {
					t.Fatalf("%s mode=%v p=%d: set %v, want %v", name, mode, p, res.Set, base.Set)
				}
				if res.Conductance != base.Conductance || res.Volume != base.Volume || res.Cut != base.Cut {
					t.Fatalf("%s mode=%v p=%d: result %+v, want %+v", name, mode, p, res, base)
				}
			}
		}
	}
}

func TestNibbleFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		seeds := []uint32{0, 1, 2, 3, 4, 5}
		base, baseSt := NibbleRun(g, seeds, 1e-5, 12, RunConfig{Procs: 1, Frontier: FrontierSparse})
		baseCluster, _ := clusterOf(t, g, base)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				vec, st := NibbleRun(g, seeds, 1e-5, 12, RunConfig{Procs: p, Frontier: mode})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				cluster, _ := clusterOf(t, g, vec)
				if !sameCluster(cluster, baseCluster) {
					t.Fatalf("%s mode=%v p=%d: cluster differs", name, mode, p)
				}
			}
		}
	}
}

// TestDenseModeForcesDenseStructures double-checks the dense machinery is
// actually exercised: in FrontierDense mode every frontier round must take
// the bitmap path (the engine's decision is pinned), and the vectors start
// as flat arrays. A barbell seed whose clique frontier has volume near 2m
// also crosses the auto threshold on its first round.
func TestDenseModeForcesDenseStructures(t *testing.T) {
	g := gen.Barbell(20)
	ws := workspace.New(g.NumVertices())
	eng := newFrontierEngine(g, 2, FrontierDense, &Stats{}, ws, nil)
	if !eng.useDense(1, 1) {
		t.Fatal("FrontierDense engine chose the sparse path")
	}
	if eng2 := newFrontierEngine(g, 2, FrontierSparse, &Stats{}, ws, nil); eng2.useDense(1<<20, 1<<40) {
		t.Fatal("FrontierSparse engine chose the dense path")
	}
	v := newVec(g.NumVertices(), FrontierDense, 4, ws)
	if _, ok := v.Table.(*sparse.Dense); !ok {
		t.Fatalf("FrontierDense vec backed by %T, want *sparse.Dense", v.Table)
	}
}

// TestVecPromotion pins the hash -> dense promotion: an auto-mode vector
// promotes (sticky, preserving entries) once its bound crosses
// n/vecPromoteFrac, and a sparse-mode vector never does.
func TestVecPromotion(t *testing.T) {
	const n = 1024
	v := newVec(n, FrontierAuto, 4, workspace.New(n))
	v.Add(7, 1.5)
	v.Add(9, 2.5)
	if _, ok := v.Table.(*sparse.ConcurrentMap); !ok {
		t.Fatalf("auto vec should start as a hash table, got %T", v.Table)
	}
	v.reserve(n / vecPromoteFrac / 2)
	if _, ok := v.Table.(*sparse.ConcurrentMap); !ok {
		t.Fatalf("small reserve must not promote, got %T", v.Table)
	}
	v.reserve(n/vecPromoteFrac + 1)
	if _, ok := v.Table.(*sparse.Dense); !ok {
		t.Fatalf("crossing the bound must promote, got %T", v.Table)
	}
	if v.Get(7) != 1.5 || v.Get(9) != 2.5 || v.Len() != 2 {
		t.Fatalf("promotion lost entries: %v %v len=%d", v.Get(7), v.Get(9), v.Len())
	}
	// Reset with a large bound promotes too, but starts empty.
	v2 := newVec(n, FrontierAuto, 4, workspace.New(n))
	v2.Add(3, 1)
	v2.reset(2, n)
	if _, ok := v2.Table.(*sparse.Dense); !ok {
		t.Fatalf("reset past the bound must promote, got %T", v2.Table)
	}
	if v2.Len() != 0 || v2.Get(3) != 0 {
		t.Fatalf("reset-promotion must clear: len=%d", v2.Len())
	}
	// Sparse mode never promotes.
	vs := newVec(n, FrontierSparse, 4, workspace.New(n))
	vs.reset(2, 4*n)
	if _, ok := vs.Table.(*sparse.ConcurrentMap); !ok {
		t.Fatalf("sparse-mode vec promoted to %T", vs.Table)
	}
}

func TestParseFrontierMode(t *testing.T) {
	for s, want := range map[string]FrontierMode{
		"": FrontierAuto, "auto": FrontierAuto,
		"sparse": FrontierSparse, "dense": FrontierDense,
	} {
		got, err := ParseFrontierMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseFrontierMode(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String() roundtrip: %q -> %q", s, got.String())
		}
	}
	if _, err := ParseFrontierMode("bitmap"); err == nil {
		t.Fatal("ParseFrontierMode accepted an unknown mode")
	}
}
