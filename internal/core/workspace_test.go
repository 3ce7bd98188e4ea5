package core

// workspace_test.go extends the cross-mode determinism suite to the
// workspace pool: a pooled run must return exactly the clusters and Stats
// of an unpooled one, in every frontier mode and at every worker count —
// including back-to-back pooled runs, which exercise recycled (previously
// dirtied) arenas. A dirty-reuse failure shows up here as a result
// difference on the second pooled run.

import (
	"math"
	"sync"
	"testing"

	"parcluster/internal/workspace"
)

func TestPooledRunsMatchUnpooled(t *testing.T) {
	for name, g := range frontierFixtures() {
		pool := workspace.NewPool(g.NumVertices())
		seeds := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
		base, baseSt := PRNibbleRun(g, seeds, 0.02, 1e-5, OptimizedRule, 1, RunConfig{Procs: 1, Frontier: FrontierSparse})
		baseCluster, basePhi := clusterOf(t, g, base)
		for _, mode := range frontierModes() {
			// A coarser epsilon than the mode-determinism suite (which already
			// pins thresholds) keeps this suite fast under -race; two worker
			// counts cover the sequential and parallel schedules.
			for _, p := range []int{1, 8} {
				// Two pooled runs per configuration: the first may miss the
				// pool, the second is guaranteed to run on recycled arenas.
				for round := 0; round < 2; round++ {
					vec, st := PRNibbleRun(g, seeds, 0.02, 1e-5, OptimizedRule, 1,
						RunConfig{Procs: p, Frontier: mode, Workspace: pool})
					if st != baseSt {
						t.Fatalf("%s mode=%v p=%d round=%d: stats %+v, want %+v", name, mode, p, round, st, baseSt)
					}
					cluster, phi := clusterOf(t, g, vec)
					if !sameCluster(cluster, baseCluster) {
						t.Fatalf("%s mode=%v p=%d round=%d: cluster %v, want %v", name, mode, p, round, cluster, baseCluster)
					}
					if math.Abs(phi-basePhi) > 1e-12 {
						t.Fatalf("%s mode=%v p=%d round=%d: conductance %v, want %v", name, mode, p, round, phi, basePhi)
					}
					if ok, why := vectorsClose(base, vec, 1e-9); !ok {
						t.Fatalf("%s mode=%v p=%d round=%d: vectors differ: %s", name, mode, p, round, why)
					}
				}
			}
		}
		st := pool.Stats()
		if st.Acquires != st.Releases {
			t.Fatalf("%s: pool acquires %d != releases %d (leak)", name, st.Acquires, st.Releases)
		}
		if st.Hits == 0 {
			t.Fatalf("%s: pooled reruns never hit the pool: %+v", name, st)
		}
	}
}

// TestPooledAlgorithmsMatchUnpooled runs every pooled kernel against its
// unpooled twin on one fixture (PR-Nibble is covered exhaustively above).
func TestPooledAlgorithmsMatchUnpooled(t *testing.T) {
	g := frontierFixtures()["community"]
	pool := workspace.NewPool(g.NumVertices())
	seeds := []uint32{0, 1, 2, 3}
	cfg := func(mode FrontierMode) RunConfig {
		return RunConfig{Procs: 4, Frontier: mode, Workspace: pool}
	}
	for _, mode := range frontierModes() {
		for round := 0; round < 2; round++ {
			nv, nst := NibbleRun(g, seeds, 1e-5, 12, cfg(mode))
			nbase, nbaseSt := NibbleRun(g, seeds, 1e-5, 12, RunConfig{Procs: 4, Frontier: mode})
			if nst != nbaseSt {
				t.Fatalf("nibble mode=%v round=%d: stats %+v != %+v", mode, round, nst, nbaseSt)
			}
			if ok, why := vectorsClose(nbase, nv, 1e-12); !ok {
				t.Fatalf("nibble mode=%v round=%d: %s", mode, round, why)
			}
			hv, hst := HKPRRun(g, seeds, 4, 15, 1e-6, cfg(mode))
			hbase, hbaseSt := HKPRRun(g, seeds, 4, 15, 1e-6, RunConfig{Procs: 4, Frontier: mode})
			if hst != hbaseSt {
				t.Fatalf("hkpr mode=%v round=%d: stats %+v != %+v", mode, round, hst, hbaseSt)
			}
			if ok, why := vectorsClose(hbase, hv, 1e-12); !ok {
				t.Fatalf("hkpr mode=%v round=%d: %s", mode, round, why)
			}
			ev, est := EvolvingSetPar(g, 0, EvolvingSetOptions{
				MaxIter: 30, Seed: 11, Procs: 4, Frontier: mode, Workspace: pool,
			})
			ebase, ebaseSt := EvolvingSetPar(g, 0, EvolvingSetOptions{
				MaxIter: 30, Seed: 11, Procs: 4, Frontier: mode,
			})
			if est != ebaseSt || !sameCluster(sortedU32(ev.Set), sortedU32(ebase.Set)) {
				t.Fatalf("evolving mode=%v round=%d: pooled trajectory diverged", mode, round)
			}
		}
	}
}

// TestConcurrentPooledQueries mimics the serving layer under -race: many
// goroutines borrow from the same two per-graph pools at once. Every result
// must match the single-threaded unpooled baseline.
func TestConcurrentPooledQueries(t *testing.T) {
	fixtures := frontierFixtures()
	graphs := []string{"caveman", "community"}
	type baseline struct {
		cluster []uint32
		st      Stats
	}
	bases := make(map[string]baseline)
	pools := make(map[string]*workspace.Pool)
	seeds := []uint32{0, 1, 2, 3}
	for _, name := range graphs {
		g := fixtures[name]
		vec, st := PRNibbleRun(g, seeds, 0.02, 1e-5, OptimizedRule, 1, RunConfig{Procs: 1, Frontier: FrontierSparse})
		cluster, _ := clusterOf(t, g, vec)
		bases[name] = baseline{cluster: cluster, st: st}
		pools[name] = workspace.NewPool(g.NumVertices())
	}
	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := graphs[(gi+i)%len(graphs)]
				g := fixtures[name]
				mode := frontierModes()[i%3]
				vec, st := PRNibbleRun(g, seeds, 0.02, 1e-5, OptimizedRule, 1,
					RunConfig{Procs: 2, Frontier: mode, Workspace: pools[name]})
				if st != bases[name].st {
					t.Errorf("%s g=%d i=%d: stats %+v, want %+v", name, gi, i, st, bases[name].st)
					return
				}
				cluster, _ := clusterOf(t, g, vec)
				if !sameCluster(cluster, bases[name].cluster) {
					t.Errorf("%s g=%d i=%d: cluster mismatch", name, gi, i)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	for name, p := range pools {
		if st := p.Stats(); st.Acquires != st.Releases {
			t.Fatalf("%s: acquires %d != releases %d (leak)", name, st.Acquires, st.Releases)
		}
	}
}

// TestNCPUsesInternalPool checks that NCP's private pool actually recycles
// across its inner diffusions and that the result is unchanged by pooling.
func TestNCPUsesInternalPool(t *testing.T) {
	g := frontierFixtures()["caveman"]
	opts := NCPOptions{Seeds: 4, Alphas: []float64{0.05}, Epsilons: []float64{1e-5}, Procs: 2, Seed: 7}
	base := NCP(g, opts)

	pool := workspace.NewPool(g.NumVertices())
	opts.Workspace = pool
	pts := NCP(g, opts)
	if len(pts) != len(base) {
		t.Fatalf("pooled NCP returned %d points, want %d", len(pts), len(base))
	}
	for i := range pts {
		if pts[i] != base[i] {
			t.Fatalf("point %d: %+v != %+v", i, pts[i], base[i])
		}
	}
	st := pool.Stats()
	if st.Acquires == 0 || st.Hits == 0 {
		t.Fatalf("NCP never recycled through the supplied pool: %+v", st)
	}
	if st.Acquires != st.Releases {
		t.Fatalf("NCP leaked workspaces: %+v", st)
	}
}

// TestMismatchedPoolIsIgnored pins the defensive fallback: a pool sized for
// a different universe must not corrupt a run (or be corrupted by it).
func TestMismatchedPoolIsIgnored(t *testing.T) {
	g := frontierFixtures()["caveman"]
	wrong := workspace.NewPool(g.NumVertices() + 1)
	vec, st := PRNibbleRun(g, []uint32{0}, 0.02, 1e-6, OptimizedRule, 1,
		RunConfig{Procs: 2, Frontier: FrontierDense, Workspace: wrong})
	base, baseSt := PRNibbleRun(g, []uint32{0}, 0.02, 1e-6, OptimizedRule, 1, RunConfig{Procs: 2, Frontier: FrontierDense})
	if st != baseSt {
		t.Fatalf("stats %+v, want %+v", st, baseSt)
	}
	if ok, why := vectorsClose(base, vec, 1e-12); !ok {
		t.Fatal(why)
	}
	if got := wrong.Stats().Acquires; got != 0 {
		t.Fatalf("mismatched pool was used (%d acquires)", got)
	}
}
