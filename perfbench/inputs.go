package main

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/rng"
)

// The graph is fixed — the Medium soc-LJ stand-in, n=240,000, m=2,733,326 —
// so every seed measures the same data; the seed drives only the request
// stream (query seeds, Zipf ranks, ingest edges).
const (
	graphName = "g"
	alpha     = 0.01
	// ingestPeriod is the open-loop writer's schedule: one batch every
	// 20 ms (50/s), each of ingestRecords records.
	ingestPeriod  = 20 * time.Millisecond
	ingestRecords = 16
	// ingestLag is how many batches an inserted edge lives before a later
	// batch deletes it, so the graph stays near its base size.
	ingestLag = 4
)

func makeGraph() (*graph.CSR, error) { return gen.StandIn(0, "soc-LJ", gen.Medium) }

// writeGraph saves g in the given format ("adj" text or packed "lgz")
// under dir and returns the path.
func writeGraph(dir, format string, g *graph.CSR) (string, error) {
	path := filepath.Join(dir, "soc-LJ."+format)
	return path, graph.SaveFormat(0, path, format, g)
}

// newRand returns the math/rand generator for one independent stream of a
// run: stream numbers name the consumer (client index, writer, probe), so
// the same seed always yields the same bytes for each.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(rng.Mix64(seed*0x9E3779B97F4A7C15 + stream))))
}

// queryStream generates one client's sequence of cluster requests.
type queryStream struct {
	w    *workload
	g    *graph.CSR
	r    *rand.Rand
	zipf *rand.Zipf // nil = uniform seeds
	perm []int      // Zipf rank -> vertex
}

// newQueryStream returns client's request stream for the run seed. Zipfian
// workloads rank vertices by one seeded permutation shared by all clients,
// so the clients hit the same popular vertices and the result cache serves
// a stable share of hits.
func newQueryStream(w *workload, g *graph.CSR, seed uint64, client int) *queryStream {
	q := &queryStream{w: w, g: g, r: newRand(seed, 100+uint64(client))}
	if w.zipf {
		q.perm = newRand(seed, 1).Perm(g.NumVertices())
		q.zipf = rand.NewZipf(q.r, 1.1, 1, uint64(g.NumVertices()-1))
	}
	return q
}

// next returns the next request body and its seeds.
func (q *queryStream) next() ([]byte, []uint32) {
	var seeds []uint32
	switch {
	case q.zipf != nil:
		seeds = []uint32{uint32(q.perm[q.zipf.Uint64()])}
	case q.w.seedsPer > 1:
		seeds = bfsBall(q.g, uint32(q.r.Intn(q.g.NumVertices())), q.w.seedsPer)
	default:
		seeds = []uint32{uint32(q.r.Intn(q.g.NumVertices()))}
	}
	return q.w.request(seeds), seeds
}

// bfsBall returns root followed by the first k−1 other vertices of a
// breadth-first search from it, in visit order (fewer if root's component
// is smaller than k).
func bfsBall(g graph.Graph, root uint32, k int) []uint32 {
	ball := []uint32{root}
	seen := map[uint32]bool{root: true}
	for i := 0; i < len(ball) && len(ball) < k; i++ {
		for _, w := range g.Neighbors(ball[i]) {
			if !seen[w] {
				seen[w] = true
				ball = append(ball, w)
				if len(ball) == k {
					break
				}
			}
		}
	}
	return ball
}

// request encodes the workload's cluster request for seeds.
func (w *workload) request(seeds []uint32) []byte {
	b, err := json.Marshal(api.ClusterRequest{
		Graph:  graphName,
		Algo:   "prnibble",
		Seeds:  seeds,
		Params: api.Params{Alpha: alpha, Epsilon: w.eps},
		Class:  w.class,
	})
	if err != nil {
		panic(err) // a fixed struct of plain fields always encodes
	}
	return b
}

// ingestStream generates the open-loop writer's batches: each inserts
// ingestRecords/2 fresh edges (absent from the base graph and never
// inserted before) and deletes the edges inserted ingestLag batches
// earlier; the first ingestLag batches insert instead, so every batch
// carries exactly ingestRecords records.
type ingestStream struct {
	g    *graph.CSR
	r    *rand.Rand
	used map[[2]uint32]bool
	past [][][2]uint32 // inserts of each batch so far
}

func newIngestStream(g *graph.CSR, seed uint64) *ingestStream {
	return &ingestStream{g: g, r: newRand(seed, 2), used: make(map[[2]uint32]bool)}
}

func (s *ingestStream) fresh(k int) [][2]uint32 {
	out := make([][2]uint32, 0, k)
	n := s.g.NumVertices()
	for len(out) < k {
		u, v := uint32(s.r.Intn(n)), uint32(s.r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]uint32{u, v}
		if s.used[e] || s.g.HasEdge(u, v) {
			continue
		}
		s.used[e] = true
		out = append(out, e)
	}
	return out
}

func (s *ingestStream) next() api.IngestRequest {
	k := len(s.past)
	req := api.IngestRequest{Edges: s.fresh(ingestRecords / 2)}
	s.past = append(s.past, req.Edges)
	if k >= ingestLag {
		req.Deletes = s.past[k-ingestLag]
	} else {
		req.Edges = append(req.Edges, s.fresh(ingestRecords/2)...)
	}
	return req
}
