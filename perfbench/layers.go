package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/core"
	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/service"
	"parcluster/internal/sparse"
	"parcluster/internal/wal"
	"parcluster/internal/workspace"
)

// Probe sizes: enough repetitions that each median is steady, small enough
// that a traced run stays well inside its time limit.
const (
	probeReps      = 9 // repetitions of whole-graph probes (rounds, decode)
	probeOpens     = 3 // graph opens
	probeBatches   = 200
	probeE4Seeds   = 32
	probeE6Seeds   = 8
	probeFanouts   = 3
	mismatchSample = 32 // served answers recomputed at procs=1
	sparseFrontier = 512
	writerProbe    = 2 * time.Second
)

// tracedRun measures the workload for dur/2 untraced and dur/2 traced on
// the same server (their p50 ratio is the tracing overhead), reads the
// traffic-side layer counters over the traced half, then closes the server
// and times each module's public calls directly. Spans go to
// .bench_build/spans/<workload>-seed<seed>.jsonl.
func tracedRun(w *workload, g *graph.CSR, seed uint64, dur time.Duration, st *stack, lg *loadGen, origin time.Time, path, tmp string) (*result, error) {
	tr := &tracer{origin: origin}
	pa := phase{from: warmup, to: warmup + dur/2}
	pb := phase{from: pa.to, to: pa.to + dur/2}
	if err := lg.drive(st.url, origin, origin.Add(pa.to), nil); err != nil {
		return nil, err
	}
	before, err := scrape(st.url, w.class)
	if err != nil {
		return nil, err
	}
	if err := lg.drive(st.url, origin, origin.Add(pb.to), tr); err != nil {
		return nil, err
	}
	after, err := scrape(st.url, w.class)
	if err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	runtime.GC()

	m := map[string]metric{}
	ra, rb := lg.readStats(pa), lg.readStats(pb)
	m["trace.overhead_frac"] = metric{rb.p50MS/ra.p50MS - 1, "ratio"}
	trafficLayers(m, w, lg, pb, before, after)

	v := lg.gate(g, seed)
	p := &prober{tr: tr, g: g, m: m, r: newRand(seed, 4), seed: seed}
	p.root = tr.add("probe", 0, "probe", time.Now(), time.Now())
	if err := p.run(w, path, tmp, lg, v); err != nil {
		return nil, err
	}
	if w.ingest {
		lat, late, _, _ := lg.writeStats(pb)
		m["ingest_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
		m["ingest_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
		m["gen.late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
	}
	if err := writeSpans(tr, w.name, seed); err != nil {
		return nil, err
	}

	_, late, wattempts, wfailed := lg.writeStats(phase{from: pa.from, to: pb.to})
	res := &result{
		Correct:   v.wrong == 0,
		Attempted: ra.attempts + rb.attempts + wattempts,
		Failed:    ra.failed + rb.failed + wfailed + v.wrong,
		Metrics:   m,
	}
	return res, verdictErr(v, late)
}

// serverSide is one scrape of the server's own counters: /v1/stats and the
// scheduler's queue-wait histogram from /metrics.
type serverSide struct {
	stats api.EngineStats
	wait  histogram
}

func scrape(url, class string) (*serverSide, error) {
	var s serverSide
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.stats)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s.wait, err = parseHistogram(resp.Body, "lgc_queue_wait_seconds", `class="`+class+`"`)
	return &s, err
}

// trafficLayers derives the layer metrics that only live traffic has:
// scheduler waits, cache and workspace hit shares, batching, bytes.
func trafficLayers(m map[string]metric, w *workload, lg *loadGen, pb phase, before, after *serverSide) {
	b, a := before.stats, after.stats
	frac := func(hit, all int64) float64 {
		if all == 0 {
			return 0
		}
		return float64(hit) / float64(all)
	}
	m["service.cache_hit_frac"] = metric{frac(a.CacheHits-b.CacheHits, a.CacheHits-b.CacheHits+a.CacheMisses-b.CacheMisses), "ratio"}
	ws := func(s api.WorkspaceStats) (int64, int64) {
		return s.Hits + s.ResultHits + s.BatchHits, s.Acquires + s.ResultAcquires + s.BatchAcquires
	}
	ah, aa := ws(a.Workspace)
	bh, ba := ws(b.Workspace)
	m["workspace.hit_frac"] = metric{frac(ah-bh, aa-ba), "ratio"}
	wait := diffHistogram(before.wait, after.wait)
	m["sched.queue_wait_p50_ms"] = metric{1000 * histQuantile(wait, 0.5), "ms"}
	m["sched.queue_wait_p99_ms"] = metric{1000 * histQuantile(wait, 0.99), "ms"}
	cls := func(s api.SchedStats) int64 {
		if w.class == "batch" {
			return s.Batch.Rejected
		}
		return s.Interactive.Rejected
	}
	m["sched.rejected"] = metric{float64(cls(a.Sched) - cls(b.Sched)), "count"}
	m["service.batch_lanes_filled"] = metric{frac(a.Batch.LanesFilled-b.Batch.LanesFilled, a.Batch.Groups-b.Batch.Groups), "lanes"}
	rs := lg.readStats(pb)
	m["service.traversals_saved"] = metric{frac(a.Batch.TraversalsSaved-b.Batch.TraversalsSaved, int64(rs.attempts)), "count"}
	var bytes, n float64
	for _, rd := range lg.readers {
		for _, s := range rd.samples {
			if pb.in(s) && s.ok() {
				bytes += float64(s.size)
				n++
			}
		}
	}
	m["api.response_bytes"] = metric{bytes / n, "B"}
}

// prober times public calls into each module directly, recording a span
// around each.
type prober struct {
	tr   *tracer
	root int
	g    *graph.CSR
	m    map[string]metric
	r    *rand.Rand
	seed uint64
}

func (p *prober) time(name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	p.tr.add("probe", p.root, name, start, end)
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

func (p *prober) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

func (p *prober) vertices(k int) []uint32 {
	out := make([]uint32, k)
	for i := range out {
		out[i] = uint32(p.r.Intn(p.g.NumVertices()))
	}
	return out
}

func (p *prober) run(w *workload, path, tmp string, lg *loadGen, v *verdict) error {
	lgzPath := path
	if w.format != "lgz" {
		var err error
		if lgzPath, err = writeGraph(tmp, "lgz", p.g); err != nil {
			return err
		}
	}
	lgz, err := graph.OpenCompressed(lgzPath)
	if err != nil {
		return err
	}
	defer lgz.Close()
	steps := []func() error{
		func() error { return p.graphLayer(w, path, lgz) },
		func() error { return p.walLayer(tmp) },
		func() error { p.ligraLayer(lgz); return nil },
		func() error { p.coreLayer(); return nil },
		func() error { return p.mismatch(w, lg, v) },
		func() error { return p.serviceLayer(w, tmp) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		runtime.GC() // each layer's scratch is gone before the next is timed
	}
	return nil
}

// graphLayer: opening the workload's file, decoding every .lgz list, and
// Versioned.Apply / Snapshot on 16-record batches.
func (p *prober) graphLayer(w *workload, path string, lgz *graph.CCSR) error {
	var opens []float64
	for i := 0; i < probeOpens; i++ {
		var h graph.Graph
		var err error
		opens = append(opens, p.time("graph.open", func() { h, err = graph.LoadFormat(0, path, w.format) }))
		if err != nil {
			return err
		}
		if c, ok := h.(*graph.CCSR); ok {
			c.Close()
		}
	}
	p.set("graph.open_ms", median(opens), "ms")

	var decodes []float64
	var sum uint64
	for i := 0; i < probeReps; i++ {
		decodes = append(decodes, p.time("graph.decode", func() {
			var buf []uint32
			for u := 0; u < lgz.NumVertices(); u++ {
				buf = lgz.NeighborsInto(buf, uint32(u))
				sum += uint64(len(buf))
			}
		}))
	}
	if sum != uint64(probeReps)*lgz.TotalVolume() {
		return fmt.Errorf("decode probe read %d adjacency entries, want %d", sum, uint64(probeReps)*lgz.TotalVolume())
	}
	p.set("graph.decode_ms", median(decodes), "ms")

	vg := graph.NewVersioned(0, p.g)
	is := newIngestStream(p.g, p.seed^0x5eed)
	var applies, snaps []float64
	for i := 0; i < probeBatches; i++ {
		req := is.next()
		ins, del := toEdges(req.Edges), toEdges(req.Deletes)
		var err error
		applies = append(applies, p.time("graph.apply", func() { _, err = vg.Apply(ins, del, 0) }))
		if err != nil {
			return err
		}
		if i%10 == 9 {
			snaps = append(snaps, p.time("graph.snapshot", func() { vg.Snapshot().Release() }))
		}
	}
	p.set("graph.apply_us", 1000*median(applies), "us")
	p.set("graph.snapshot_ms", median(snaps), "ms")
	return nil
}

func toEdges(pairs [][2]uint32) []graph.Edge {
	out := make([]graph.Edge, len(pairs))
	for i, e := range pairs {
		out[i] = graph.Edge{U: e[0], V: e[1]}
	}
	return out
}

// walLayer: wal.Log.Append of 16-record batches under the default
// fsync-always policy.
func (p *prober) walLayer(tmp string) error {
	l, err := wal.Open(filepath.Join(tmp, "wal-probe"), wal.Options{})
	if err != nil {
		return err
	}
	is := newIngestStream(p.g, p.seed^0x5eed)
	var appends []float64
	for i := 0; i < probeBatches; i++ {
		req := is.next()
		b := &wal.Batch{Epoch: uint64(i + 1), Vertices: uint64(p.g.NumVertices()), Ins: req.Edges, Del: req.Deletes}
		appends = append(appends, p.time("wal.append", func() { err = l.Append(b) }))
		if err != nil {
			return err
		}
	}
	p.set("wal.append_us", 1000*median(appends), "us")
	p.set("wal.fsyncs", float64(l.Stats().Fsyncs), "count")
	return l.Close()
}

// ligraLayer: one EdgeMap round over a sparse frontier of random vertices
// and one over a dense frontier of every fourth vertex, on both
// representations at procs 1 and 2.
func (p *prober) ligraLayer(lgz *graph.CCSR) {
	n := p.g.NumVertices()
	ids := p.vertices(sparseFrontier)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ids = dedup(ids)
	bits := make([]uint64, (n+63)/64)
	count := 0
	for u := 0; u < n; u += 4 {
		bits[u/64] |= 1 << (u % 64)
		count++
	}
	visits := make([]uint32, n)
	update := func(src, dst uint32) bool { return atomic.AddUint32(&visits[dst], 1) == 1 }
	for _, rep := range []struct {
		name string
		g    graph.Graph
	}{{"heap", p.g}, {"lgz", lgz}} {
		for _, procs := range []int{1, 2} {
			for _, mode := range []struct {
				name string
				mode ligra.Mode
				set  ligra.VertexSubset
			}{
				{"sparse", ligra.ForceSparse, ligra.FromIDs(ids)},
				{"dense", ligra.ForceDense, ligra.FromBitmap(bits, n, count)},
			} {
				var times []float64
				for i := 0; i < probeReps; i++ {
					clear(visits)
					times = append(times, p.time("ligra.edgemap."+mode.name, func() {
						ligra.EdgeMapMode(procs, rep.g, mode.set, mode.mode, update)
					}))
				}
				p.set(fmt.Sprintf("ligra.%s_round_ms.%s.p%d", mode.name, rep.name, procs), median(times), "ms")
			}
		}
	}
}

func dedup(s []uint32) []uint32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// coreLayer: PR-Nibble kernels and sweeps at both ε regimes, at procs 1
// and 2, and one 16-lane PRNibbleBatch against 16 PRNibbleRun calls.
func (p *prober) coreLayer() {
	pool := workspace.NewPool(p.g.NumVertices())
	var total core.Stats
	for _, e := range []struct {
		name  string
		eps   float64
		seeds []uint32
	}{{"e4", 1e-4, p.vertices(probeE4Seeds)}, {"e6", 1e-6, p.vertices(probeE6Seeds)}} {
		med := map[int]float64{}
		for _, procs := range []int{1, 2} {
			var times []float64
			for _, s := range e.seeds {
				arena := pool.AcquireResult()
				var st core.Stats
				times = append(times, p.time("core.prnibble."+e.name, func() {
					_, st = core.PRNibbleRun(p.g, []uint32{s}, alpha, e.eps, core.OptimizedRule, 0,
						core.RunConfig{Procs: procs, Workspace: pool, Result: arena})
				}))
				arena.Release()
				if procs == 1 {
					total.Pushes += st.Pushes
					total.Iterations += st.Iterations
					total.EdgesTouched += st.EdgesTouched
				}
			}
			med[procs] = median(times)
			p.set(fmt.Sprintf("core.prnibble_ms.%s.p%d", e.name, procs), med[procs], "ms")
		}
		p.set("core.prnibble_speedup."+e.name, med[1]/med[2], "ratio")
		var sweeps []float64
		for _, s := range e.seeds {
			arena := pool.AcquireResult()
			vec, _ := core.PRNibbleRun(p.g, []uint32{s}, alpha, e.eps, core.OptimizedRule, 0,
				core.RunConfig{Workspace: pool, Result: arena})
			sweeps = append(sweeps, p.time("core.sweep."+e.name, func() { core.SweepCutParInto(p.g, vec, 0, arena) }))
			arena.Release()
		}
		p.set("core.sweep_ms."+e.name, median(sweeps), "ms")
	}
	p.set("core.pushes", float64(total.Pushes), "count")
	p.set("core.rounds", float64(total.Iterations), "count")
	p.set("core.edges_touched", float64(total.EdgesTouched), "count")
	p.set("ligra.edges_per_round", float64(total.EdgesTouched)/float64(total.Iterations), "count")

	var batches, fanouts []float64
	for i := 0; i < probeFanouts; i++ {
		ball := bfsBall(p.g, p.vertices(1)[0], 16)
		units := make([]core.BatchUnit, len(ball))
		for j, s := range ball {
			units[j] = core.BatchUnit{Seeds: []uint32{s}}
		}
		batches = append(batches, p.time("core.batch", func() {
			core.PRNibbleBatch(p.g, units, alpha, 1e-6, core.OptimizedRule, core.BatchConfig{Workspace: pool})
		}))
		fanouts = append(fanouts, p.time("core.fanout", func() {
			for _, s := range ball {
				core.PRNibbleRun(p.g, []uint32{s}, alpha, 1e-6, core.OptimizedRule, 0, core.RunConfig{Workspace: pool})
			}
		}))
	}
	p.set("core.batch_ms", median(batches), "ms")
	p.set("core.fanout_ms", median(fanouts), "ms")
}

// mismatch recomputes the first served answers at procs=1 through
// PRNibbleRun + SweepCutParInto on the graph at each answer's epoch and
// counts those whose members or conductance differ from what the server
// (at all cores) returned. The count is reported, not gated.
func (p *prober) mismatch(w *workload, lg *loadGen, v *verdict) error {
	vg := graph.NewVersioned(1, p.g)
	batches, err := lg.ackedBatches()
	if err != nil {
		return err
	}
	next := 0
	var cur graph.Graph = p.g
	var snap *graph.Snapshot
	defer func() {
		if snap != nil {
			snap.Release()
		}
	}()
	pool := workspace.NewPool(p.g.NumVertices())
	count := 0
	for i, a := range v.served {
		if i == mismatchSample {
			break
		}
		if next < len(batches) && batches[next].epoch <= a.epoch {
			for next < len(batches) && batches[next].epoch <= a.epoch {
				b := batches[next].req
				if _, err := vg.Apply(toEdges(b.Edges), toEdges(b.Deletes), 0); err != nil {
					return err
				}
				next++
			}
			if snap != nil {
				snap.Release()
			}
			snap = vg.Snapshot()
			cur = snap.Graph()
			if snap.Epoch() != a.epoch {
				return fmt.Errorf("mirror reached epoch %d, answer is at %d", snap.Epoch(), a.epoch)
			}
		}
		arena := workspace.NewResult()
		var members []uint32
		var phi float64
		p.time("core.recount", func() {
			vec, _ := core.PRNibbleRun(cur, a.result.Seeds, alpha, w.eps, core.OptimizedRule, 0,
				core.RunConfig{Procs: 1, Workspace: pool, Result: arena})
			sw := core.SweepCutParInto(cur, vec, 1, arena)
			members, phi = append([]uint32(nil), sw.Cluster...), sw.Conductance
		})
		arena.Release()
		if phi != a.result.Conductance || !sameSet(members, a.result.Members) {
			count++
		}
	}
	p.set("core.procs_mismatch", float64(count), "count")
	return nil
}

func sameSet(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]uint32(nil), a...)
	y := append([]uint32(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// serviceLayer runs a probe server over the benchmark's heap copy of the
// graph with a WAL (fsync always) and times: Engine.Cluster on a miss and
// on a hit, the kernel and sweep under it, the JSON and NDJSON encoders,
// the same request over HTTP, Engine.Ingest and — for workloads without a
// writer — the open-loop writer.
func (p *prober) serviceLayer(w *workload, tmp string) error {
	reg := service.NewRegistry(0, false)
	if err := reg.EnableWAL(service.WALConfig{Dir: filepath.Join(tmp, "wal-service-probe")}); err != nil {
		return err
	}
	reg.RegisterGraph(graphName, p.g)
	st, err := startStack(reg, service.Config{})
	if err != nil {
		return err
	}
	defer st.close() // error paths; the success path closes and checks
	ctx := context.Background()
	procs := runtime.GOMAXPROCS(0)
	pool := workspace.NewPool(p.g.NumVertices())
	c := newClient()
	defer c.CloseIdleConnections()

	var miss, hit, enc, engRes, httpRes []float64
	for i, s := range p.vertices(probeE4Seeds + 1) {
		req := api.ClusterRequest{Graph: graphName, Algo: "prnibble", Seeds: []uint32{s},
			Params: api.Params{Alpha: alpha, Epsilon: 1e-4}, Class: "interactive", NoCache: true}
		// One untimed run first, so the kernel, the sweep and the engine
		// below all find the seed's neighbourhood equally warm in cache.
		arena := pool.AcquireResult()
		core.PRNibbleRun(p.g, req.Seeds, alpha, 1e-4, core.OptimizedRule, 0, core.RunConfig{Procs: procs, Workspace: pool, Result: arena})
		arena.Release()
		arena = pool.AcquireResult()
		var vec *sparse.Map
		kernel := p.time("core.prnibble.e4", func() {
			vec, _ = core.PRNibbleRun(p.g, req.Seeds, alpha, 1e-4, core.OptimizedRule, 0,
				core.RunConfig{Procs: procs, Workspace: pool, Result: arena})
		})
		sweep := p.time("core.sweep.e4", func() { core.SweepCutParInto(p.g, vec, procs, arena) })
		arena.Release()

		var resp *api.ClusterResponse
		var cerr error
		missMS := p.time("service.cluster_miss", func() { resp, cerr = st.eng.Cluster(ctx, &req) })
		if cerr != nil {
			return cerr
		}
		var buf bytes.Buffer
		encMS := p.time("api.encode_json", func() { cerr = api.WriteClusterResponse(&buf, resp) })
		if cerr != nil {
			return cerr
		}
		req.NoCache = false
		var hresp *api.ClusterResponse
		hitMS := p.time("service.cluster_hit", func() { hresp, cerr = st.eng.Cluster(ctx, &req) })
		if cerr != nil {
			return cerr
		}
		if !hresp.Results[0].Cached {
			return fmt.Errorf("probe hit on seed %d was not served from the cache", s)
		}
		req.NoCache = true
		body, _ := json.Marshal(req)
		var status int
		var rbuf bytes.Buffer
		httpMS := p.time("http/v1/cluster", func() { status, cerr = post(c, st.url+"/v1/cluster", body, "", &rbuf) })
		if cerr != nil || status != http.StatusOK {
			return fmt.Errorf("probe request: status %d: %v", status, cerr)
		}
		if i == 0 {
			continue // the first round warms pools and connections
		}
		miss, hit, enc = append(miss, missMS), append(hit, hitMS), append(enc, encMS)
		engRes = append(engRes, missMS-kernel-sweep)
		httpRes = append(httpRes, httpMS-missMS-encMS)
	}
	p.set("service.cluster_miss_ms", median(miss), "ms")
	p.set("service.cluster_hit_ms", median(hit), "ms")
	p.set("api.encode_us.json", 1000*median(enc), "us")
	p.set("attr.engine_residual_ms", median(engRes), "ms")
	p.set("attr.http_residual_ms", median(httpRes), "ms")

	// One 16-seed ε=1e-6 answer, encoded as the NDJSON stream.
	ball := bfsBall(p.g, p.vertices(1)[0], 16)
	resp, err := st.eng.Cluster(ctx, &api.ClusterRequest{Graph: graphName, Algo: "prnibble", Seeds: ball,
		Params: api.Params{Alpha: alpha, Epsilon: 1e-6}, Class: "batch"})
	if err != nil {
		return err
	}
	var nd []float64
	for i := 0; i < probeReps; i++ {
		var buf bytes.Buffer
		nd = append(nd, p.time("api.encode_ndjson", func() {
			err = api.WriteClusterStreamHeader(&buf, resp.Graph, resp.Vertices, resp.Edges, resp.Epoch, resp.Algo, len(resp.Results))
			for j := range resp.Results {
				err = errors.Join(err, api.WriteClusterResultLine(&buf, &resp.Results[j]))
			}
			err = errors.Join(err, api.WriteClusterStreamTrailer(&buf, &resp.Aggregate))
		}))
		if err != nil {
			return err
		}
	}
	p.set("api.encode_ms.ndjson", median(nd), "ms")

	is := newIngestStream(p.g, p.seed^0x5eed)
	var ingests []float64
	for i := 0; i < probeBatches; i++ {
		req := is.next()
		ingests = append(ingests, p.time("service.ingest", func() { _, err = st.eng.Ingest(ctx, graphName, &req) }))
		if err != nil {
			return err
		}
	}
	p.set("service.ingest_us", 1000*median(ingests), "us")

	if !w.ingest {
		// No writer in the workload: the open-loop writer alone, on schedule,
		// against the probe server (which ingested above, so its stream
		// starts from fresh edges).
		wr := &writer{client: newClient(), stream: newIngestStream(p.g, p.seed^0xfeed)}
		defer wr.client.CloseIdleConnections()
		var acked atomic.Uint64
		origin := time.Now()
		if err := wr.run(st.url, origin, origin.Add(writerProbe), &acked, p.tr); err != nil {
			return err
		}
		var lat, late []float64
		for _, s := range wr.samples {
			if !s.ok() {
				return fmt.Errorf("writer probe: status %d", s.status)
			}
			lat, late = append(lat, ms(s.end-s.start)), append(late, ms(s.late))
		}
		p.set("ingest_p50_ms", quantile(lat, 0.5), "ms")
		p.set("ingest_p99_ms", quantile(lat, 0.99), "ms")
		p.set("gen.late_p99_ms", quantile(late, 0.99), "ms")
	}
	return st.close()
}

// writeSpans writes every recorded span as one JSON line.
func writeSpans(tr *tracer, workload string, seed uint64) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
