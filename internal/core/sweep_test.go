package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

func procsUnderTest() []int { return []int{1, 3, runtime.GOMAXPROCS(0)} }

// figure1Vector returns a vector over the Figure 1 graph whose sweep order
// is exactly {A, B, C, D}: scores p/d = 4, 3, 2, 1.
func figure1Vector() *sparse.Map {
	vec := sparse.NewMap(4)
	vec.Set(0, 8) // A: 8/2 = 4
	vec.Set(1, 6) // B: 6/2 = 3
	vec.Set(2, 6) // C: 6/3 = 2
	vec.Set(3, 4) // D: 4/4 = 1
	return vec
}

// sweepZPair is one (value, rank) pair of the Theorem-1 Z array, using the
// paper's conventions: ranks are 1-based over the support and N+1 for
// vertices outside it.
type sweepZPair struct {
	Value int // +1, -1, or 0
	Rank  int
}

// buildSweepZ constructs the (unsorted) Z array of Theorem 1 for a given
// sweep order: for each vertex v in rank order and each incident edge
// (v, w) in adjacency order, two consecutive pairs — (+1, rank v),
// (-1, rank w) when rank w > rank v (case a), else (0, rank v), (0, rank w)
// (case b). The §3.1 worked example is this construction on the Figure 1
// graph, and TestSweepExampleSection31 compares against it verbatim.
func buildSweepZ(g graph.Graph, order []uint32) []sweepZPair {
	N := len(order)
	rank := make(map[uint32]int, N)
	for i, v := range order {
		rank[v] = i + 1
	}
	var z []sweepZPair
	var adj []uint32
	for _, v := range order {
		rv := rank[v]
		ns := g.NeighborsInto(adj, v)
		adj = ns
		for _, w := range ns {
			rw, ok := rank[w]
			if !ok {
				rw = N + 1
			}
			if rw > rv {
				z = append(z, sweepZPair{Value: 1, Rank: rv}, sweepZPair{Value: -1, Rank: rw})
			} else {
				z = append(z, sweepZPair{Value: 0, Rank: rv}, sweepZPair{Value: 0, Rank: rw})
			}
		}
	}
	return z
}

// sortPairsByScore returns the support of vec sorted by the sweep order
// along with the normalized scores.
func sortPairsByScore(g graph.Graph, vec *sparse.Map) ([]uint32, []float64) {
	order := sweepOrder(1, g, vec, nil)
	scores := make([]float64, len(order))
	for i, v := range order {
		d := g.Degree(v)
		if d == 0 {
			scores[i] = math.Inf(1)
			continue
		}
		scores[i] = vec.Get(v) / float64(d)
	}
	return order, scores
}

func TestSweepOrderFigure1(t *testing.T) {
	g := gen.Figure1()
	order, scores := sortPairsByScore(g, figure1Vector())
	if !reflect.DeepEqual(order, []uint32{0, 1, 2, 3}) {
		t.Fatalf("order = %v, want [0 1 2 3]", order)
	}
	want := []float64{4, 3, 2, 1}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("score[%d] = %v, want %v", i, scores[i], want[i])
		}
	}
}

// TestSweepExampleSection31 reproduces the worked example of §3.1 verbatim:
// the Z array for the order {A, B, C, D} on the Figure 1 graph, and the
// per-prefix crossing counts 2, 2, 1, 3.
func TestSweepExampleSection31(t *testing.T) {
	g := gen.Figure1()
	z := buildSweepZ(g, []uint32{0, 1, 2, 3})
	// The paper's Z, row by row (A, B, C, D).
	want := []sweepZPair{
		{1, 1}, {-1, 2}, {1, 1}, {-1, 3},
		{0, 2}, {0, 1}, {1, 2}, {-1, 3},
		{0, 3}, {0, 1}, {0, 3}, {0, 2}, {1, 3}, {-1, 4},
		{0, 4}, {0, 3}, {1, 4}, {-1, 5}, {1, 4}, {-1, 5}, {1, 4}, {-1, 5},
	}
	if len(z) != len(want) {
		t.Fatalf("Z has %d pairs, want %d (2*vol = 22)", len(z), len(want))
	}
	for i := range want {
		if z[i] != want[i] {
			t.Fatalf("Z[%d] = %+v, want %+v\nfull Z: %+v", i, z[i], want[i], z)
		}
	}
	// Crossing counts via the prefix conductances: phi_i = cut_i / min(vol_i,
	// 16 - vol_i) with vol = [2, 4, 7, 11] gives cut = [2, 2, 1, 3].
	res := SweepCutParSortInto(g, figure1Vector(), 2, nil)
	wantPhi := []float64{1, 0.5, 1.0 / 7.0, 3.0 / 5.0}
	if len(res.PrefixConductance) != 4 {
		t.Fatalf("prefix count = %d", len(res.PrefixConductance))
	}
	for i, phi := range wantPhi {
		if math.Abs(res.PrefixConductance[i]-phi) > 1e-15 {
			t.Fatalf("phi[%d] = %v, want %v", i, res.PrefixConductance[i], phi)
		}
	}
	if !reflect.DeepEqual(res.Cluster, []uint32{0, 1, 2}) {
		t.Fatalf("cluster = %v, want {A,B,C}", res.Cluster)
	}
	if math.Abs(res.Conductance-1.0/7.0) > 1e-15 {
		t.Fatalf("conductance = %v, want 1/7", res.Conductance)
	}
	if res.Volume != 7 || res.Cut != 1 {
		t.Fatalf("volume=%d cut=%d, want 7, 1", res.Volume, res.Cut)
	}
}

func TestSweepImplementationsAgreeFigure1(t *testing.T) {
	g := gen.Figure1()
	vec := figure1Vector()
	seq := SweepCutSeqInto(g, vec, nil)
	for _, p := range procsUnderTest() {
		for name, res := range map[string]SweepResult{
			"par":     SweepCutParInto(g, vec, p, nil),
			"parSort": SweepCutParSortInto(g, vec, p, nil),
		} {
			if !reflect.DeepEqual(res.Cluster, seq.Cluster) {
				t.Fatalf("p=%d %s: cluster %v vs seq %v", p, name, res.Cluster, seq.Cluster)
			}
			if res.Conductance != seq.Conductance {
				t.Fatalf("p=%d %s: conductance %v vs %v", p, name, res.Conductance, seq.Conductance)
			}
			if !reflect.DeepEqual(res.PrefixConductance, seq.PrefixConductance) {
				t.Fatalf("p=%d %s: prefix conductances differ", p, name)
			}
		}
	}
}

// randomVector puts random mass on a random subset of vertices.
func randomVector(g *graph.CSR, density float64, rnd *rand.Rand) *sparse.Map {
	vec := sparse.NewMap(16)
	for v := 0; v < g.NumVertices(); v++ {
		if rnd.Float64() < density {
			vec.Set(uint32(v), rnd.Float64()+1e-3)
		}
	}
	return vec
}

func TestSweepImplementationsAgreeRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	graphs := map[string]*graph.CSR{
		"caveman":   gen.Caveman(10, 8),
		"grid3d":    gen.Grid3D(1, 8),
		"randlocal": gen.RandLocal(1, 2000, 5, 3),
		"barbell":   gen.Barbell(15),
		"star":      gen.Star(50),
	}
	for name, g := range graphs {
		for trial := 0; trial < 5; trial++ {
			vec := randomVector(g, 0.2, rnd)
			if vec.Len() == 0 {
				continue
			}
			seq := SweepCutSeqInto(g, vec, nil)
			for _, p := range procsUnderTest() {
				par := SweepCutParInto(g, vec, p, nil)
				srt := SweepCutParSortInto(g, vec, p, nil)
				if !reflect.DeepEqual(par.Cluster, seq.Cluster) || par.Conductance != seq.Conductance {
					t.Fatalf("%s trial %d p=%d: par disagrees with seq (%v/%v vs %v/%v)",
						name, trial, p, par.Cluster, par.Conductance, seq.Cluster, seq.Conductance)
				}
				if !reflect.DeepEqual(srt.Cluster, seq.Cluster) || srt.Conductance != seq.Conductance {
					t.Fatalf("%s trial %d p=%d: parSort disagrees with seq", name, trial, p)
				}
				if !reflect.DeepEqual(par.PrefixConductance, seq.PrefixConductance) {
					t.Fatalf("%s trial %d p=%d: prefix conductance mismatch", name, trial, p)
				}
				// Cross-check the winner against the direct definition.
				direct := g.Conductance(seq.Cluster)
				if math.Abs(direct-seq.Conductance) > 1e-12 {
					t.Fatalf("%s trial %d: sweep conductance %v != direct %v", name, trial, seq.Conductance, direct)
				}
			}
		}
	}
}

func TestSweepEmptyVector(t *testing.T) {
	g := gen.Figure1()
	vec := sparse.NewMap(0)
	for _, res := range []SweepResult{
		SweepCutSeqInto(g, vec, nil), SweepCutParInto(g, vec, 2, nil), SweepCutParSortInto(g, vec, 2, nil),
	} {
		if len(res.Cluster) != 0 || res.Conductance != 1 {
			t.Fatalf("empty vector sweep: %+v", res)
		}
	}
}

func TestSweepIgnoresNonPositive(t *testing.T) {
	g := gen.Figure1()
	vec := sparse.NewMap(4)
	vec.Set(0, 1)
	vec.Set(1, 0)  // explicit zero: not part of the support
	vec.Set(2, -1) // negative: not part of the support
	res := SweepCutSeqInto(g, vec, nil)
	if len(res.Order) != 1 || res.Order[0] != 0 {
		t.Fatalf("support = %v, want [0]", res.Order)
	}
}

func TestSweepSingleVertex(t *testing.T) {
	g := gen.Figure1()
	vec := sparse.NewMap(1)
	vec.Set(3, 1) // D alone: cut 4, vol 4 -> phi = 1
	for _, res := range []SweepResult{
		SweepCutSeqInto(g, vec, nil), SweepCutParInto(g, vec, 2, nil), SweepCutParSortInto(g, vec, 2, nil),
	} {
		if len(res.Cluster) != 1 || res.Cluster[0] != 3 {
			t.Fatalf("cluster = %v", res.Cluster)
		}
		if res.Conductance != 1 {
			t.Fatalf("conductance = %v, want 1", res.Conductance)
		}
	}
}

func TestSweepZeroDegreeVertexInSupport(t *testing.T) {
	// An isolated vertex with mass sorts first but cannot win.
	g := graph.FromEdges(1, 6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	vec := sparse.NewMap(4)
	vec.Set(5, 10) // isolated
	vec.Set(0, 3)
	vec.Set(1, 3)
	vec.Set(2, 3)
	seq := SweepCutSeqInto(g, vec, nil)
	if seq.Order[0] != 5 {
		t.Fatalf("isolated vertex should sort first, order = %v", seq.Order)
	}
	// Best cluster is {5, 0, 1} or {5, 0, 1, 2}-ish; must contain the
	// triangle and have conductance < 1.
	if seq.Conductance >= 1 {
		t.Fatalf("conductance = %v", seq.Conductance)
	}
	for _, p := range procsUnderTest() {
		par := SweepCutParInto(g, vec, p, nil)
		srt := SweepCutParSortInto(g, vec, p, nil)
		if !reflect.DeepEqual(par.Cluster, seq.Cluster) || !reflect.DeepEqual(srt.Cluster, seq.Cluster) {
			t.Fatalf("p=%d: disagreement with zero-degree support", p)
		}
	}
}

func TestSweepTieBreakDeterminism(t *testing.T) {
	// All-equal scores: order must be by ascending ID for every
	// implementation and worker count.
	g := gen.Clique(32)
	vec := sparse.NewMap(32)
	for v := uint32(0); v < 32; v++ {
		vec.Set(v, 1)
	}
	want := SweepCutSeqInto(g, vec, nil).Order
	for i, v := range want {
		if v != uint32(i) {
			t.Fatalf("seq tie-break order wrong: %v", want)
		}
	}
	for _, p := range procsUnderTest() {
		if got := SweepCutParInto(g, vec, p, nil).Order; !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: par order %v", p, got)
		}
		if got := SweepCutParSortInto(g, vec, p, nil).Order; !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: parSort order %v", p, got)
		}
	}
}

func TestSweepFindsPlantedBarbellCut(t *testing.T) {
	// Mass concentrated on the left clique: the sweep must find exactly it.
	k := 20
	g := gen.Barbell(k)
	vec := sparse.NewMap(2 * k)
	for v := 0; v < 2*k; v++ {
		mass := 1.0
		if v < k {
			mass = 100 - float64(v) // left clique, strictly decreasing
		}
		vec.Set(uint32(v), mass)
	}
	res := SweepCutSeqInto(g, vec, nil)
	if len(res.Cluster) != k {
		t.Fatalf("cluster size = %d, want %d", len(res.Cluster), k)
	}
	for _, v := range res.Cluster {
		if int(v) >= k {
			t.Fatalf("cluster contains right-clique vertex %d", v)
		}
	}
	if res.Cut != 1 {
		t.Fatalf("cut = %d, want 1 (the bridge)", res.Cut)
	}
}

// TestSweepPooledMatchesUnpooled pins the pooled==unpooled bit-identity of
// all three sweep variants: recycling one arena across many sweeps (Reset
// between runs, as NCP and batch ablations do) must change nothing about
// the returned cluster, conductances, or sweep order.
func TestSweepPooledMatchesUnpooled(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	g := gen.Caveman(12, 8)
	arena := workspace.NewResult()
	for trial := 0; trial < 8; trial++ {
		vec := randomVector(g, 0.3, rnd)
		if vec.Len() == 0 {
			continue
		}
		type variant struct {
			name     string
			unpooled SweepResult
			pooled   func() SweepResult
		}
		variants := []variant{
			{"seq", SweepCutSeqInto(g, vec, nil), func() SweepResult { return SweepCutSeqInto(g, vec, arena) }},
			{"par", SweepCutParInto(g, vec, 2, nil), func() SweepResult { return SweepCutParInto(g, vec, 2, arena) }},
			{"parSort", SweepCutParSortInto(g, vec, 2, nil), func() SweepResult { return SweepCutParSortInto(g, vec, 2, arena) }},
		}
		for _, v := range variants {
			arena.Reset()
			pooled := v.pooled()
			if !reflect.DeepEqual(pooled.Cluster, v.unpooled.Cluster) ||
				pooled.Conductance != v.unpooled.Conductance ||
				pooled.Volume != v.unpooled.Volume || pooled.Cut != v.unpooled.Cut {
				t.Fatalf("trial %d %s: pooled result differs from unpooled", trial, v.name)
			}
			if !reflect.DeepEqual(pooled.Order, v.unpooled.Order) ||
				!reflect.DeepEqual(pooled.PrefixConductance, v.unpooled.PrefixConductance) {
				t.Fatalf("trial %d %s: pooled order/prefix differ from unpooled", trial, v.name)
			}
		}
	}
}

// BenchmarkSweepPooling measures the per-call allocation profile of each
// sweep variant with and without a recycled result arena — the before/after
// table in DESIGN.md §7. Run with -benchmem.
func BenchmarkSweepPooling(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	g := gen.RandLocal(1, 20000, 8, 3)
	vec := randomVector(g, 0.25, rnd)
	variants := []struct {
		name string
		run  func(arena *workspace.Result)
	}{
		{"seq", func(a *workspace.Result) { SweepCutSeqInto(g, vec, a) }},
		{"par", func(a *workspace.Result) { SweepCutParInto(g, vec, 4, a) }},
		{"parSort", func(a *workspace.Result) { SweepCutParSortInto(g, vec, 4, a) }},
	}
	for _, v := range variants {
		b.Run(v.name+"/unpooled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.run(nil)
			}
		})
		b.Run(v.name+"/pooled", func(b *testing.B) {
			arena := workspace.NewResult()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.Reset()
				v.run(arena)
			}
		})
	}
}
