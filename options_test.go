package parcluster

import (
	"math"
	"testing"

	"parcluster/internal/core"
)

func TestNibbleOptionDefaults(t *testing.T) {
	o := NibbleOptions{}
	o.defaults()
	if o.Epsilon != 1e-8 || o.T != 20 {
		t.Fatalf("Nibble defaults = %+v, want the paper's Table 3 settings", o)
	}
}

func TestPRNibbleOptionDefaults(t *testing.T) {
	o := PRNibbleOptions{}
	o.defaults()
	if o.Alpha != 0.01 || o.Epsilon != 1e-7 {
		t.Fatalf("PRNibble defaults = %+v", o)
	}
	// The push rule follows UseOriginalRule alone: each setting must run
	// exactly core's entry under the matching rule, counter for counter.
	g := MustGenerate("caveman", map[string]int{"cliques": 6, "k": 8})
	seeds := []uint32{0}
	var perRule [2]Stats
	for i, rule := range []PushRule{OriginalRule, OptimizedRule} {
		_, got := PRNibble(g, seeds, PRNibbleOptions{Alpha: 0.05, Epsilon: 1e-5, UseOriginalRule: rule == OriginalRule})
		_, want := core.PRNibbleRun(g, seeds, 0.05, 1e-5, rule, 1, core.RunConfig{})
		if got != want {
			t.Fatalf("rule %v: PRNibble stats %v, core.PRNibbleRun %v", rule, got, want)
		}
		perRule[i] = got
	}
	if perRule[0] == perRule[1] {
		t.Fatal("the two rules did the same work; the comparison cannot tell them apart")
	}
}

func TestHKPROptionDefaults(t *testing.T) {
	o := HKPROptions{}
	o.defaults()
	if o.T != 10 || o.N != 20 || o.Epsilon != 1e-7 {
		t.Fatalf("HKPR defaults = %+v", o)
	}
}

func TestRandHKPROptionDefaults(t *testing.T) {
	o := RandHKPROptions{}
	o.defaults()
	if o.T != 10 || o.K != 10 || o.Walks != 100000 {
		t.Fatalf("RandHKPR defaults = %+v", o)
	}
}

func TestRandHKPRVariantsBitIdentical(t *testing.T) {
	// The public API exposes all three rand-HK-PR implementations; they
	// must return bit-identical vectors for the same Seed, from a single
	// seed and from a seed set alike.
	g := MustGenerate("caveman", map[string]int{"cliques": 6, "k": 8})
	base := RandHKPROptions{Walks: 3000, Seed: 5}
	seqOpt := base
	seqOpt.Sequential = true
	conOpt := base
	conOpt.Contended = true
	for _, seeds := range [][]uint32{{0}, {0, 9, 17, 40}} {
		vPar, _ := RandHKPR(g, seeds, base)
		vSeq, _ := RandHKPR(g, seeds, seqOpt)
		vCon, _ := RandHKPR(g, seeds, conOpt)
		if vPar.Len() != vSeq.Len() || vPar.Len() != vCon.Len() {
			t.Fatalf("seeds %v: support sizes differ: %d %d %d", seeds, vPar.Len(), vSeq.Len(), vCon.Len())
		}
		vPar.ForEach(func(k uint32, v float64) {
			if vSeq.Get(k) != v || vCon.Get(k) != v {
				t.Fatalf("seeds %v: variant mismatch at %d: %v / %v / %v", seeds, k, v, vSeq.Get(k), vCon.Get(k))
			}
		})
	}
}

func TestPRNibbleBetaViaAPI(t *testing.T) {
	g := MustGenerate("caveman", map[string]int{"cliques": 6, "k": 8})
	vec, st := PRNibble(g, []uint32{0}, PRNibbleOptions{Alpha: 0.05, Epsilon: 1e-5, Beta: 0.5})
	if vec.Len() == 0 || st.Iterations == 0 {
		t.Fatal("beta variant returned nothing")
	}
}

func TestPRNibblePriorityQueueViaAPI(t *testing.T) {
	g := MustGenerate("caveman", map[string]int{"cliques": 6, "k": 8})
	vec, _ := PRNibble(g, []uint32{0}, PRNibbleOptions{Sequential: true, PriorityQueue: true})
	res := SweepCut(g, vec, SweepOptions{})
	if res.Conductance > 0.1 {
		t.Fatalf("PQ variant cluster conductance %v", res.Conductance)
	}
}

func TestFigure1PipelineViaAPI(t *testing.T) {
	// The quickstart's pinned result: from seed A every method finds
	// {A, B, C} at conductance 1/7.
	g := MustGenerate("figure1", nil)
	opts := ClusterOptions{}
	opts.Nibble.Epsilon = 1e-4
	for _, method := range []string{"nibble", "prnibble", "hkpr"} {
		opts.Method = method
		c, err := FindCluster(g, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c.Conductance-1.0/7.0) > 1e-12 {
			t.Fatalf("%s: conductance %v, want 1/7", method, c.Conductance)
		}
		got := SortedCopy(c.Members)
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("%s: cluster %v, want {A,B,C}", method, got)
		}
	}
}

func TestEvolvingSetViaAPI(t *testing.T) {
	g := MustGenerate("barbell", map[string]int{"k": 15})
	res, st := EvolvingSet(g, 0, EvolvingSetOptions{MaxIter: 50, GrowOnly: true, Seed: 3}, false)
	if len(res.Set) != 15 {
		t.Fatalf("set size %d, want the left clique", len(res.Set))
	}
	if st.Iterations == 0 {
		t.Fatal("stats not populated")
	}
	// And through FindCluster's method dispatch.
	opts := ClusterOptions{Method: "evolving"}
	opts.EvolvingSet = EvolvingSetOptions{MaxIter: 50, GrowOnly: true, Seed: 3}
	c, err := FindCluster(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Members) != 15 || c.Cut != 1 {
		t.Fatalf("FindCluster(evolving): size %d cut %d", len(c.Members), c.Cut)
	}
}

func TestStatsExposedThroughCluster(t *testing.T) {
	g := MustGenerate("barbell", map[string]int{"k": 10})
	c, err := FindCluster(g, 0, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Pushes == 0 || c.Stats.EdgesTouched == 0 {
		t.Fatalf("stats not propagated: %+v", c.Stats)
	}
	if c.Volume == 0 || c.Cut == 0 {
		t.Fatalf("cluster quality fields not set: %+v", c)
	}
}

func TestSeedSetAPI(t *testing.T) {
	// Seeding two vertices of the same barbell clique recovers that clique.
	// (Seeding *both* cliques symmetrically would be adversarial: the sweep
	// order interleaves the two sides and no good prefix exists.)
	g := MustGenerate("barbell", map[string]int{"k": 20})
	for name, run := range map[string]func() (*Vector, Stats){
		"nibble":   func() (*Vector, Stats) { return Nibble(g, []uint32{0, 5}, NibbleOptions{Epsilon: 1e-6}) },
		"prnibble": func() (*Vector, Stats) { return PRNibble(g, []uint32{0, 5}, PRNibbleOptions{}) },
		"hkpr":     func() (*Vector, Stats) { return HKPR(g, []uint32{0, 5}, HKPROptions{}) },
		"randhk":   func() (*Vector, Stats) { return RandHKPR(g, []uint32{0, 5}, RandHKPROptions{Walks: 20000}) },
	} {
		vec, st := run()
		if vec.Len() == 0 || st.Pushes == 0 {
			t.Fatalf("%s: empty result", name)
		}
		res := SweepCut(g, vec, SweepOptions{})
		if res.Cut != 1 || len(res.Cluster) != 20 {
			t.Errorf("%s: cluster size %d cut %d, want one clique", name, len(res.Cluster), res.Cut)
		}
	}
}
