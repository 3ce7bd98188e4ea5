package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/service"
)

func smallGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := gen.StandIn(0, "soc-LJ", gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// streamBytes concatenates the first k request bodies of every client of
// w, then the first k writer batches.
func streamBytes(t *testing.T, w *workload, g *graph.CSR, seed uint64, k int) []byte {
	t.Helper()
	var out bytes.Buffer
	for c := 0; c < w.readers; c++ {
		q := newQueryStream(w, g, seed, c)
		for i := 0; i < k; i++ {
			body, _ := q.next()
			out.Write(body)
		}
	}
	if w.ingest {
		s := newIngestStream(g, seed)
		for i := 0; i < k; i++ {
			b, err := json.Marshal(s.next())
			if err != nil {
				t.Fatal(err)
			}
			out.Write(b)
		}
	}
	return out.Bytes()
}

func TestRequestStreamDeterministic(t *testing.T) {
	g := smallGraph(t)
	for _, w := range workloads {
		a := streamBytes(t, w, g, 7, 200)
		b := streamBytes(t, w, g, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		if bytes.Equal(a, streamBytes(t, w, g, 8, 200)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

func TestIngestStreamShape(t *testing.T) {
	g := smallGraph(t)
	s := newIngestStream(g, 3)
	inserted := map[[2]uint32]bool{}
	for k := 0; k < 50; k++ {
		req := s.next()
		if n := len(req.Edges) + len(req.Deletes); n != ingestRecords {
			t.Fatalf("batch %d has %d records", k, n)
		}
		for _, e := range req.Edges {
			if e[0] >= e[1] || g.HasEdge(e[0], e[1]) || inserted[e] {
				t.Fatalf("batch %d inserts %v: not a fresh canonical non-edge", k, e)
			}
			inserted[e] = true
		}
		for _, e := range req.Deletes {
			if !inserted[e] {
				t.Fatalf("batch %d deletes %v, which no earlier batch inserted", k, e)
			}
		}
	}
}

func TestHashIndex(t *testing.T) {
	var h hashIndex
	key := func(x int32) uint64 { return uint64(x) * 0x9E3779B97F4A7C15 }
	for x := int32(0); x < 100000; x++ {
		if idx, fresh := h.put(key(x), x); !fresh || idx != x {
			t.Fatalf("first put of %d: index %d, fresh %v", x, idx, fresh)
		}
	}
	for x := int32(0); x < 100000; x++ {
		if idx, fresh := h.put(key(x), -1); fresh || idx != x {
			t.Fatalf("second put of %d: index %d, fresh %v", x, idx, fresh)
		}
	}
	if h.n != 100000 || 4*h.n > 3*len(h.keys) {
		t.Errorf("%d entries in %d slots", h.n, len(h.keys))
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2, 5, 4}, 0.5, 3},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{7}, 0.99, 7},
		{[]float64{10, 20}, 0.75, 17.5},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
	if xs[0] != 100 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestHistQuantile(t *testing.T) {
	exposition := `# TYPE lgc_queue_wait_seconds histogram
lgc_queue_wait_seconds_bucket{class="batch",le="0.001"} 7
lgc_queue_wait_seconds_bucket{class="interactive",le="0.001"} 50
lgc_queue_wait_seconds_bucket{class="interactive",le="0.002"} 90
lgc_queue_wait_seconds_bucket{class="interactive",le="0.004"} 100
lgc_queue_wait_seconds_bucket{class="interactive",le="+Inf"} 100
lgc_queue_wait_seconds_sum{class="batch"} 0.003
lgc_queue_wait_seconds_sum{class="interactive"} 0.1
lgc_queue_wait_seconds_count{class="interactive"} 100
`
	h, err := parseHistogram(strings.NewReader(exposition), "lgc_queue_wait_seconds", `class="interactive"`)
	if err != nil || len(h.buckets) != 4 || h.sum != 0.1 {
		t.Fatalf("parsed %+v, %v", h, err)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 0.001},   // rank 50 closes the first bucket
		{0.25, 0.0005}, // halfway into [0, 0.001]
		{0.7, 0.0015},  // rank 70: halfway through (0.001, 0.002]
		{0.95, 0.003},  // rank 95: halfway through (0.002, 0.004]
	} {
		if got := histQuantile(h, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("histQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	before := histogram{buckets: []bucket{{0.001, 40}, {0.002, 80}, {0.004, 90}, {math.Inf(1), 90}}, sum: 0.08}
	d := diffHistogram(before, h)
	if d.buckets[0].count != 10 || d.buckets[1].count != 10 || d.buckets[3].count != 10 || math.Abs(d.sum-0.02) > 1e-15 {
		t.Errorf("diffHistogram = %+v", d)
	}
	// All 7 batch observations below the first bound: read as uniform on
	// [0, 2·mean], mean = 0.003/7.
	b, err := parseHistogram(strings.NewReader(exposition), "lgc_queue_wait_seconds", `class="batch"`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := histQuantile(b, 0.5), 0.003/7; math.Abs(got-want) > 1e-15 {
		t.Errorf("first-bucket p50 = %v, want the mean %v", got, want)
	}
}

// testRun serves g from an in-process stack configured for w and drives
// w's clients against it for d.
func testRun(t *testing.T, w *workload, g *graph.CSR, d time.Duration) *loadGen {
	t.Helper()
	reg := service.NewRegistry(0, false)
	if w.ingest {
		if err := reg.EnableWAL(service.WALConfig{Dir: filepath.Join(t.TempDir(), "wal")}); err != nil {
			t.Fatal(err)
		}
	}
	reg.RegisterGraph(graphName, g)
	st, err := startStack(reg, service.Config{BatchLanes: w.batchLanes})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.close(); err != nil {
			t.Error(err)
		}
	}()
	lg := newLoadGen(w, g, 5)
	defer lg.close()
	origin := time.Now()
	if err := lg.drive(st.url, origin, origin.Add(d), nil); err != nil {
		t.Fatal(err)
	}
	return lg
}

func TestGateAcceptsServedAnswers(t *testing.T) {
	g := smallGraph(t)
	for _, w := range workloads {
		lg := testRun(t, w, g, 500*time.Millisecond)
		v := lg.gate(g, 5)
		if v.wrong != 0 || v.checked == 0 {
			t.Errorf("%s: %d of %d answers wrong; first: %v", w.name, v.wrong, v.checked, v.first)
		}
		if w.ingest {
			acked, err := lg.ackedBatches()
			if err != nil || len(acked) == 0 {
				t.Errorf("%s: %d acknowledged batches, %v", w.name, len(acked), err)
			}
		}
	}
}

// TestGateRejectsTampering alters one field of one stored answer at a time
// and requires the gate to count it wrong.
func TestGateRejectsTampering(t *testing.T) {
	g := smallGraph(t)
	w, err := lookupWorkload("ingest_mix")
	if err != nil {
		t.Fatal(err)
	}
	lg := testRun(t, w, g, 300*time.Millisecond)
	bodies := lg.readers[0].store.bodies
	last := len(bodies) - 1
	orig := bodies[last]
	for name, tamper := range map[string]func(*api.ClusterResponse){
		"cut":         func(r *api.ClusterResponse) { r.Results[0].Cut++ },
		"volume":      func(r *api.ClusterResponse) { r.Results[0].Volume++ },
		"size":        func(r *api.ClusterResponse) { r.Results[0].Size++ },
		"conductance": func(r *api.ClusterResponse) { r.Results[0].Conductance = math.Nextafter(r.Results[0].Conductance, 2) },
		"epoch":       func(r *api.ClusterResponse) { r.Epoch = 0 }, // behind what the writer had acknowledged
		"seed": func(r *api.ClusterResponse) {
			r.Results[0].Seeds[0] = (r.Results[0].Seeds[0] + 1) % uint32(g.NumVertices())
		},
		"member": func(r *api.ClusterResponse) {
			// Swap the first member for a non-member of another degree, so
			// the volume cannot come out the same.
			m := r.Results[0].Members
			in := map[uint32]bool{}
			for _, v := range m {
				in[v] = true
			}
			for u := uint32(0); ; u++ {
				if !in[u] && g.Degree(u) != g.Degree(m[0]) {
					m[0] = u
					return
				}
			}
		},
	} {
		var resp api.ClusterResponse
		if err := json.Unmarshal(orig, &resp); err != nil {
			t.Fatal(err)
		}
		tamper(&resp)
		changed, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[last] = changed
		if v := lg.gate(g, 5); v.wrong == 0 {
			t.Errorf("tampered %s: gate accepted %s", name, changed)
		}
	}
	bodies[last] = orig
	if v := lg.gate(g, 5); v.wrong != 0 {
		t.Errorf("untampered answers: %d wrong; first: %v", v.wrong, v.first)
	}

	// A later request answered with an earlier request's bytes: every
	// response is held to its own request, even a repeated one.
	samples := lg.readers[0].samples
	kept := samples[len(samples)-1].body
	samples[len(samples)-1].body = samples[0].body
	if v := lg.gate(g, 5); v.wrong == 0 {
		t.Error("gate accepted a repeated answer to a different request")
	}
	samples[len(samples)-1].body = kept
}
