package ligra

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

func procsUnderTest() []int { return []int{1, 3, runtime.GOMAXPROCS(0)} }

func TestVertexSubsetBasics(t *testing.T) {
	var empty VertexSubset
	if !empty.IsEmpty() || empty.Size() != 0 {
		t.Fatal("zero value should be empty")
	}
	s := FromIDs([]uint32{3, 1, 4})
	if s.Size() != 3 || s.IsEmpty() {
		t.Fatal("FromIDs size")
	}
	if got := s.IDs(); len(got) != 3 || got[0] != 3 {
		t.Fatal("IDs mismatch")
	}
}

func TestVolume(t *testing.T) {
	g := gen.Figure1()
	s := FromIDs([]uint32{0, 1, 2, 3}) // degrees 2, 2, 3, 4
	for _, p := range procsUnderTest() {
		if vol := s.Volume(p, g); vol != 11 {
			t.Fatalf("p=%d: Volume = %d, want 11", p, vol)
		}
	}
	var empty VertexSubset
	if empty.Volume(2, g) != 0 {
		t.Fatal("empty volume")
	}
}

func TestVolumeLarge(t *testing.T) {
	g := gen.Grid3D(0, 20) // 8000 vertices, degree 6
	ids := make([]uint32, 5000)
	for i := range ids {
		ids[i] = uint32(i)
	}
	s := FromIDs(ids)
	for _, p := range procsUnderTest() {
		if vol := s.Volume(p, g); vol != 30000 {
			t.Fatalf("p=%d: Volume = %d, want 30000", p, vol)
		}
	}
}

func TestVertexMapVisitsEachOnce(t *testing.T) {
	for _, p := range procsUnderTest() {
		ids := make([]uint32, 10000)
		for i := range ids {
			ids[i] = uint32(i)
		}
		counts := make([]int32, len(ids))
		VertexMap(p, FromIDs(ids), func(v uint32) { atomic.AddInt32(&counts[v], 1) })
		for v, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: vertex %d visited %d times", p, v, c)
			}
		}
	}
}

func TestVertexFilter(t *testing.T) {
	ids := make([]uint32, 1000)
	for i := range ids {
		ids[i] = uint32(i)
	}
	for _, p := range procsUnderTest() {
		out := VertexFilterInto(p, FromIDs(ids), nil, func(v uint32) bool { return v%5 == 0 })
		if out.Size() != 200 {
			t.Fatalf("p=%d: filtered size = %d", p, out.Size())
		}
		for k, v := range out.IDs() {
			if v != uint32(5*k) {
				t.Fatalf("p=%d: order not preserved", p)
			}
		}
	}
}

func TestEdgeMapVisitsFrontierEdgesExactly(t *testing.T) {
	g := gen.Figure1()
	// Frontier {C, D}: C's edges to A,B,D and D's edges to C,E,F,G.
	for _, p := range procsUnderTest() {
		var mu sync.Mutex
		visited := map[[2]uint32]int{}
		EdgeMapMode(p, g, FromIDs([]uint32{2, 3}), ForceSparse, func(s, d uint32) bool {
			mu.Lock()
			visited[[2]uint32{s, d}]++
			mu.Unlock()
			return false
		})
		want := [][2]uint32{{2, 0}, {2, 1}, {2, 3}, {3, 2}, {3, 4}, {3, 5}, {3, 6}}
		if len(visited) != len(want) {
			t.Fatalf("p=%d: visited %d distinct edges, want %d: %v", p, len(visited), len(want), visited)
		}
		for _, e := range want {
			if visited[e] != 1 {
				t.Fatalf("p=%d: edge %v visited %d times", p, e, visited[e])
			}
		}
	}
}

func TestEdgeMapReturnsTrueTargets(t *testing.T) {
	g := gen.Figure1()
	for _, p := range procsUnderTest() {
		out := EdgeMapMode(p, g, FromIDs([]uint32{3}), ForceSparse, func(s, d uint32) bool { return d >= 4 })
		got := append([]uint32(nil), out.IDs()...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := []uint32{4, 5, 6}
		if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("p=%d: out = %v, want %v", p, got, want)
		}
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	g := gen.Figure1()
	out := EdgeMapMode(4, g, VertexSubset{}, ForceSparse, func(s, d uint32) bool { return true })
	if !out.IsEmpty() {
		t.Fatal("empty frontier produced output")
	}
}

func TestEdgeMapZeroDegreeFrontier(t *testing.T) {
	// Vertices 2..4 are isolated; a frontier of isolated vertices has no
	// incident edges and must produce an empty output.
	gi := graph.FromEdges(1, 5, []graph.Edge{{U: 0, V: 1}})
	out := EdgeMapMode(4, gi, FromIDs([]uint32{3}), ForceSparse, func(s, d uint32) bool { return true })
	if !out.IsEmpty() {
		t.Fatal("isolated frontier produced output")
	}
	// Mixed frontier: only the non-isolated vertex contributes.
	out = EdgeMapMode(4, gi, FromIDs([]uint32{2, 0, 4}), ForceSparse, func(s, d uint32) bool { return true })
	if out.Size() != 1 || out.IDs()[0] != 1 {
		t.Fatalf("mixed frontier output = %v", out.IDs())
	}
}

func TestEdgeMapDedupViaSparseCreated(t *testing.T) {
	// The idiom every algorithm uses: update returns the created flag of a
	// concurrent sparse Add, so each target appears exactly once even when
	// multiple frontier vertices push to it.
	g := gen.Clique(32) // every pair adjacent: maximal contention
	ids := make([]uint32, 16)
	for i := range ids {
		ids[i] = uint32(i)
	}
	for _, p := range procsUnderTest() {
		table := sparse.NewConcurrent(64)
		out := EdgeMapMode(p, g, FromIDs(ids), ForceSparse, func(s, d uint32) bool {
			return table.Add(d, 1)
		})
		got := append([]uint32(nil), out.IDs()...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		// Targets are all 32 vertices (frontier vertices receive pushes from
		// other frontier members too).
		if len(got) != 32 {
			t.Fatalf("p=%d: %d distinct targets, want 32 (got %v)", p, len(got), got)
		}
		for i, v := range got {
			if v != uint32(i) {
				t.Fatalf("p=%d: missing/duplicate target at %d: %v", p, i, got)
			}
		}
		// Each frontier vertex pushes to 31 neighbors: total mass 16*31.
		if total := table.Sum(p); total != 16*31 {
			t.Fatalf("p=%d: total pushes = %v, want %d", p, total, 16*31)
		}
	}
}

func TestEdgeMapEdgeBalancedOnSkewedDegrees(t *testing.T) {
	// A star: one hub with huge degree plus leaves. The chunking must split
	// the hub's edges across workers; verify correctness (every leaf
	// touched exactly once).
	const leaves = 50000
	g := gen.Star(leaves + 1)
	for _, p := range procsUnderTest() {
		var count atomic.Int64
		out := EdgeMapMode(p, g, FromIDs([]uint32{0}), ForceSparse, func(s, d uint32) bool {
			count.Add(1)
			return true
		})
		if count.Load() != leaves {
			t.Fatalf("p=%d: %d updates, want %d", p, count.Load(), leaves)
		}
		if out.Size() != leaves {
			t.Fatalf("p=%d: out size %d", p, out.Size())
		}
	}
}

// --- dual representation / dense traversal ---

func TestBitmapRoundTrip(t *testing.T) {
	const n = 1000
	ids := []uint32{3, 64, 65, 127, 128, 999}
	for _, p := range procsUnderTest() {
		s := FromIDs(ids).WithBitmap(p, n, nil)
		if !s.IsDense() || s.Size() != len(ids) {
			t.Fatalf("p=%d: WithBitmap lost representation or size", p)
		}
		for _, v := range ids {
			if !s.Has(v) {
				t.Fatalf("p=%d: Has(%d) = false", p, v)
			}
		}
		if s.Has(4) || s.Has(998) {
			t.Fatalf("p=%d: Has reports absent vertices", p)
		}
		// Dense-only subset converts back to sorted sparse IDs.
		dense := FromBitmap(s.Bits(), n, len(ids))
		back := dense.ToSparse(p)
		got := back.IDs()
		if len(got) != len(ids) {
			t.Fatalf("p=%d: round trip size %d, want %d", p, len(got), len(ids))
		}
		want := append([]uint32(nil), ids...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: round trip = %v, want %v", p, got, want)
			}
		}
	}
}

func TestWithBitmapReusesBuffer(t *testing.T) {
	const n = 500
	buf := make([]uint64, (n+63)/64)
	buf[0] = ^uint64(0) // stale bits must be cleared
	s := FromIDs([]uint32{200}).WithBitmap(2, n, buf)
	if &s.Bits()[0] != &buf[0] {
		t.Fatal("sufficient buffer was not reused")
	}
	if s.Has(0) || s.Has(63) || !s.Has(200) {
		t.Fatal("stale buffer bits survived the rebuild")
	}
}

func TestVolumeDenseMatchesSparse(t *testing.T) {
	g := gen.Grid3D(0, 12)
	n := g.NumVertices()
	ids := make([]uint32, 0, n/3)
	for v := 0; v < n; v += 3 {
		ids = append(ids, uint32(v))
	}
	sparseSub := FromIDs(ids)
	denseSub := FromBitmap(sparseSub.WithBitmap(0, n, nil).Bits(), n, len(ids))
	for _, p := range procsUnderTest() {
		if a, b := sparseSub.Volume(p, g), denseSub.Volume(p, g); a != b {
			t.Fatalf("p=%d: dense volume %d != sparse volume %d", p, b, a)
		}
	}
}

func TestEdgeApplyDenseMatchesSparse(t *testing.T) {
	// The dense traversal must visit exactly the frontier's edges, once
	// each, on a skewed graph (star: chunk boundaries split the hub).
	graphs := map[string]*graph.CSR{
		"figure1": gen.Figure1(),
		"star":    gen.Star(5000),
		"grid":    gen.Grid3D(0, 8),
	}
	for name, g := range graphs {
		n := g.NumVertices()
		ids := make([]uint32, 0, n/2+1)
		for v := 0; v < n; v += 2 {
			ids = append(ids, uint32(v))
		}
		frontier := FromIDs(ids)
		for _, p := range procsUnderTest() {
			wantCounts := make([]int64, n)
			EdgeApplyIndexedScratch(p, g, frontier, nil, nil, func(_ int, _, dst uint32) {
				atomic.AddInt64(&wantCounts[dst], 1)
			})
			gotCounts := make([]int64, n)
			fb := frontier.WithBitmap(p, n, nil)
			EdgeApplyDense(p, g, fb, func(src, dst uint32) {
				if !fb.Has(src) {
					t.Errorf("%s p=%d: dense scan pushed from non-member %d", name, p, src)
				}
				atomic.AddInt64(&gotCounts[dst], 1)
			})
			for v := range wantCounts {
				if gotCounts[v] != wantCounts[v] {
					t.Fatalf("%s p=%d: vertex %d received %d pushes, want %d",
						name, p, v, gotCounts[v], wantCounts[v])
				}
			}
		}
	}
}

func TestEdgeMapModeAgreesAcrossStrategies(t *testing.T) {
	g := gen.Grid3D(0, 10)
	n := g.NumVertices()
	ids := make([]uint32, 0, n/2)
	for v := 0; v < n; v += 2 {
		ids = append(ids, uint32(v))
	}
	frontier := FromIDs(ids)
	for _, p := range procsUnderTest() {
		collect := func(mode Mode) []uint32 {
			table := sparse.NewConcurrent(n)
			out := EdgeMapMode(p, g, frontier, mode, func(_, d uint32) bool {
				return table.Add(d, 1)
			})
			got := append([]uint32(nil), out.ToSparse(p).IDs()...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			return got
		}
		sparseOut := collect(ForceSparse)
		denseOut := collect(ForceDense)
		autoOut := collect(Auto)
		if len(sparseOut) != len(denseOut) || len(sparseOut) != len(autoOut) {
			t.Fatalf("p=%d: output sizes differ: %d / %d / %d",
				p, len(sparseOut), len(denseOut), len(autoOut))
		}
		for i := range sparseOut {
			if sparseOut[i] != denseOut[i] || sparseOut[i] != autoOut[i] {
				t.Fatalf("p=%d: outputs differ at %d", p, i)
			}
		}
	}
}

func TestOverDenseThreshold(t *testing.T) {
	g := gen.Clique(64) // n=64, 2m = 64*63
	// Tiny frontier: below (n+2m)/20.
	if OverDenseThreshold(g, 1, 63) {
		t.Fatal("single vertex crossed the dense threshold")
	}
	// Half the clique: vol = 32*63 >> (64+4032)/20.
	if !OverDenseThreshold(g, 32, 32*63) {
		t.Fatal("half the clique did not cross the dense threshold")
	}
}
