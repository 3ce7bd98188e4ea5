// Quickstart: the 60-second tour of the parcluster public API.
//
// Builds the paper's Figure 1 example graph, runs every diffusion from
// vertex A, sweeps, and prints the clusters — then repeats the headline
// pipeline (parallel PR-Nibble + parallel sweep) on a graph with a planted
// community to show a non-toy result.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"parcluster"
)

func main() {
	// --- Part 1: the paper's Figure 1 graph -----------------------------
	// Vertices A..H are 0..7; the cluster {A, B, C} has conductance 1/7.
	g := parcluster.MustGenerate("figure1", nil)
	fmt.Printf("Figure 1 graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	for _, method := range []string{"nibble", "prnibble", "hkpr", "randhk"} {
		opts := parcluster.ClusterOptions{Method: method}
		opts.Nibble.Epsilon = 1e-4 // gentler truncation for an 8-vertex graph
		cluster, err := parcluster.FindCluster(g, 0, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s -> cluster %v  conductance %.4f\n",
			method, names(cluster.Members), cluster.Conductance)
	}

	// --- Part 2: a planted community -------------------------------------
	// Two 50-cliques joined by one edge; seeding anywhere in the left
	// clique must recover exactly that clique, whose conductance is
	// 1/(50*49+1).
	barbell := parcluster.MustGenerate("barbell", map[string]int{"k": 50})
	cluster, err := parcluster.FindCluster(barbell, 7, parcluster.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBarbell(50): cluster of %d vertices, conductance %.6f (optimum %.6f)\n",
		len(cluster.Members), cluster.Conductance, 1.0/float64(50*49+1))
	fmt.Printf("  diffusion stats: %v\n", cluster.Stats)

	// --- Part 3: the pieces, separately ----------------------------------
	// The pipeline is two calls: a diffusion producing a sparse vector, and
	// a sweep cut rounding it. Intermediate access enables the analyst loop
	// the paper motivates: inspect the vector, re-sweep with other options,
	// compare prefix conductances.
	vec, stats := parcluster.PRNibble(barbell, []uint32{7}, parcluster.PRNibbleOptions{Alpha: 0.05})
	res := parcluster.SweepCut(barbell, vec, parcluster.SweepOptions{})
	fmt.Printf("\nManual pipeline: vector support %d, %d sweep prefixes, best φ=%.6f (%v)\n",
		vec.Len(), len(res.PrefixConductance), res.Conductance, stats)
}

// names maps Figure 1 vertex IDs to the paper's letters.
func names(vs []uint32) []string {
	letters := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = letters[v]
	}
	return out
}
