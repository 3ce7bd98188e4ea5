package parcluster_test

// example_test.go holds the runnable godoc examples for the root API.
// `go test` executes every example and compares its printed output, so the
// snippets in the package documentation cannot rot: if an API or a default
// changes, the example fails here first.

import (
	"fmt"

	"parcluster"
)

// Example_prNibble runs the complete local clustering pipeline — PR-Nibble
// diffusion plus sweep cut, the paper's default configuration — around one
// seed vertex of a caveman graph (8 cliques of 6 vertices in a ring). With
// the paper's default alpha the diffusion spreads far enough that the best
// sweep cut spans the seed's clique and its three ring successors — a
// lower-conductance cut than the single clique (two ring edges over four
// cliques' volume beats two over one).
func Example_prNibble() {
	g := parcluster.MustGenerate("caveman", map[string]int{"cliques": 8, "k": 6})
	cluster, err := parcluster.FindCluster(g, 0, parcluster.ClusterOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("members:", parcluster.SortedCopy(cluster.Members))
	fmt.Printf("conductance: %.4f\n", cluster.Conductance)
	// Output:
	// members: [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 42 43 44 45 46 47]
	// conductance: 0.0156
}

// Example_frontierMode pins the frontier-representation contract: the
// sparse (ID-list + hash-table) and dense (bitmap + flat-array) engine
// modes perform the same pushes with the same values, so clusters, stats,
// and conductances are identical — the knob trades constant factors only.
func Example_frontierMode() {
	g := parcluster.MustGenerate("caveman", map[string]int{"cliques": 8, "k": 6})
	seeds := []uint32{0, 1, 2}

	run := func(mode parcluster.FrontierMode) (*parcluster.Vector, parcluster.Stats) {
		return parcluster.PRNibble(g, seeds, parcluster.PRNibbleOptions{
			Epsilon:  1e-6,
			Frontier: mode,
			Procs:    2,
		})
	}
	sparseVec, sparseStats := run(parcluster.FrontierSparse)
	denseVec, denseStats := run(parcluster.FrontierDense)

	sparseCut := parcluster.SweepCut(g, sparseVec, parcluster.SweepOptions{})
	denseCut := parcluster.SweepCut(g, denseVec, parcluster.SweepOptions{})

	fmt.Println("same stats:", sparseStats == denseStats)
	fmt.Println("same cluster:", fmt.Sprint(parcluster.SortedCopy(sparseCut.Cluster)) == fmt.Sprint(parcluster.SortedCopy(denseCut.Cluster)))
	fmt.Println("pushes:", sparseStats.Pushes)
	// Output:
	// same stats: true
	// same cluster: true
	// pushes: 19669
}

// Example_workspacePool shows the batch-workload pattern: one pool per
// graph, shared by every run against it. The second query checks the first
// query's arenas back out instead of reallocating them — with identical
// results (the determinism suites pin this).
func Example_workspacePool() {
	g := parcluster.MustGenerate("caveman", map[string]int{"cliques": 8, "k": 6})
	pool := parcluster.NewWorkspacePool(g)
	opts := parcluster.ClusterOptions{Workspace: pool}

	first, _ := parcluster.FindCluster(g, 0, opts)
	second, _ := parcluster.FindCluster(g, 6, opts)
	fmt.Println("sizes:", len(first.Members), len(second.Members))

	st := pool.Stats()
	fmt.Println("acquires:", st.Acquires, "hits:", st.Hits, "leaked:", st.Acquires-st.Releases)
	// Output:
	// sizes: 24 24
	// acquires: 2 hits: 1 leaked: 0
}
