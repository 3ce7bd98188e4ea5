// Interactive: the paper's motivating workflow (§1) — "a data analyst wants
// to quickly explore the properties of local clusters found in a graph ...
// run a computation, study the result, and based on that determine what
// computation to run next" — as a small REPL.
//
// Commands (one per line on stdin):
//
//	gen <spec>            generate a graph (e.g. "gen community:n=50000")
//	load <path>           load a graph file
//	cluster <seed> [algo] run a diffusion + sweep from a seed vertex
//	sweepsizes <seed>     show the conductance-vs-size curve from one seed
//	remove                remove the last found cluster from the graph
//	stats                 print graph statistics
//	help / quit
//
// Run: go run ./examples/interactive   (then type commands)
// Or:  echo "gen barbell:k=30\ncluster 0\nremove\nstats" | go run ./examples/interactive
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"parcluster"
	"parcluster/internal/gen"
)

type session struct {
	g    *parcluster.Graph
	last []uint32 // last found cluster, for "remove"
}

func main() {
	fmt.Println("parcluster interactive explorer — type 'help' for commands")
	s := &session{}
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		if cmd == "quit" || cmd == "exit" {
			return
		}
		if err := s.dispatch(cmd, args); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func (s *session) dispatch(cmd string, args []string) error {
	switch cmd {
	case "help":
		fmt.Println("gen <spec> | load <path> | cluster <seed> [nibble|prnibble|hkpr|randhk] | sweepsizes <seed> | remove | stats | quit")
		return nil
	case "gen":
		if len(args) < 1 {
			return fmt.Errorf("usage: gen <spec>")
		}
		spec, err := gen.ParseSpec(args[0])
		if err != nil {
			return err
		}
		start := time.Now()
		g, err := gen.Generate(0, spec)
		if err != nil {
			return err
		}
		s.g, s.last = g, nil
		fmt.Printf("generated n=%d m=%d in %v\n", g.NumVertices(), g.NumEdges(), time.Since(start))
		return nil
	case "load":
		if len(args) < 1 {
			return fmt.Errorf("usage: load <path>")
		}
		g, err := parcluster.LoadFile(0, args[0])
		if err != nil {
			return err
		}
		s.g, s.last = g, nil
		fmt.Printf("loaded n=%d m=%d\n", g.NumVertices(), g.NumEdges())
		return nil
	case "cluster":
		return s.cluster(args)
	case "sweepsizes":
		return s.sweepSizes(args)
	case "remove":
		return s.remove()
	case "stats":
		return s.stats()
	}
	return fmt.Errorf("unknown command %q (try 'help')", cmd)
}

func (s *session) needGraph() error {
	if s.g == nil {
		return fmt.Errorf("no graph loaded (use 'gen' or 'load')")
	}
	return nil
}

func (s *session) parseSeed(args []string) (uint32, error) {
	if err := s.needGraph(); err != nil {
		return 0, err
	}
	if len(args) < 1 {
		return 0, fmt.Errorf("need a seed vertex")
	}
	seed, err := strconv.Atoi(args[0])
	if err != nil {
		return 0, err
	}
	if seed < 0 || seed >= s.g.NumVertices() {
		return 0, fmt.Errorf("seed %d out of range [0,%d)", seed, s.g.NumVertices())
	}
	return uint32(seed), nil
}

func (s *session) cluster(args []string) error {
	seed, err := s.parseSeed(args)
	if err != nil {
		return err
	}
	method := "prnibble"
	if len(args) >= 2 {
		method = args[1]
	}
	start := time.Now()
	c, err := parcluster.FindCluster(s.g, seed, parcluster.ClusterOptions{Method: method})
	if err != nil {
		return err
	}
	fmt.Printf("%s from %d: size=%d φ=%.5f vol=%d cut=%d in %v (%v)\n",
		method, seed, len(c.Members), c.Conductance, c.Volume, c.Cut, time.Since(start), c.Stats)
	s.last = c.Members
	return nil
}

func (s *session) sweepSizes(args []string) error {
	seed, err := s.parseSeed(args)
	if err != nil {
		return err
	}
	vec, _ := parcluster.PRNibble(s.g, []uint32{seed}, parcluster.PRNibbleOptions{})
	res := parcluster.SweepCut(s.g, vec, parcluster.SweepOptions{})
	step := len(res.PrefixConductance)/20 + 1
	for i := 0; i < len(res.PrefixConductance); i += step {
		fmt.Printf("  size %6d  φ=%.5f\n", i+1, res.PrefixConductance[i])
	}
	fmt.Printf("  best: size %d φ=%.5f\n", len(res.Cluster), res.Conductance)
	return nil
}

// remove deletes the last cluster's vertices from the graph (the paper:
// "the analyst may want to repeatedly remove local clusters from a graph").
// Vertices are renumbered densely.
func (s *session) remove() error {
	if err := s.needGraph(); err != nil {
		return err
	}
	if len(s.last) == 0 {
		return fmt.Errorf("no cluster to remove (run 'cluster' first)")
	}
	drop := make(map[uint32]bool, len(s.last))
	for _, v := range s.last {
		drop[v] = true
	}
	remap := make([]int64, s.g.NumVertices())
	next := int64(0)
	for v := 0; v < s.g.NumVertices(); v++ {
		if drop[uint32(v)] {
			remap[v] = -1
		} else {
			remap[v] = next
			next++
		}
	}
	var edges []parcluster.Edge
	for v := 0; v < s.g.NumVertices(); v++ {
		if remap[v] < 0 {
			continue
		}
		for _, w := range s.g.Neighbors(uint32(v)) {
			if uint32(v) < w && remap[w] >= 0 {
				edges = append(edges, parcluster.Edge{U: uint32(remap[v]), V: uint32(remap[w])})
			}
		}
	}
	s.g = parcluster.FromEdges(0, int(next), edges)
	s.last = nil
	fmt.Printf("removed cluster; graph now n=%d m=%d\n", s.g.NumVertices(), s.g.NumEdges())
	return nil
}

func (s *session) stats() error {
	if err := s.needGraph(); err != nil {
		return err
	}
	g := s.g
	rep, size := g.LargestComponent()
	fmt.Printf("n=%d m=%d maxdeg=%d components=%d largest=%d (rep %d)\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.NumComponents(), size, rep)
	return nil
}
