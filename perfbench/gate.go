package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"parcluster/internal/api"
	"parcluster/internal/graph"
)

// oracle is the graph at one epoch as the benchmark knows it independently
// of the server: the generated base CSR plus the edges the writer's
// acknowledged batches inserted and had not yet deleted. The writer only
// inserts edges absent from the base and only deletes its own inserts, so
// extra edges never overlap base edges.
type oracle struct {
	g      *graph.CSR
	extra  map[uint32]map[uint32]bool // live inserted edges, both directions
	nExtra uint64
	epoch  uint64
}

func newOracle(g *graph.CSR) *oracle {
	return &oracle{g: g, extra: make(map[uint32]map[uint32]bool)}
}

// apply advances the oracle by one acknowledged batch, with the server's
// semantics: inserting a present edge and deleting an absent one are
// no-ops.
func (o *oracle) apply(req api.IngestRequest, epoch uint64) {
	for _, e := range req.Edges {
		if !o.g.HasEdge(e[0], e[1]) && !o.extra[e[0]][e[1]] {
			o.link(e[0], e[1], true)
			o.link(e[1], e[0], true)
			o.nExtra++
		}
	}
	for _, e := range req.Deletes {
		if o.extra[e[0]][e[1]] {
			o.link(e[0], e[1], false)
			o.link(e[1], e[0], false)
			o.nExtra--
		}
	}
	o.epoch = epoch
}

func (o *oracle) link(u, v uint32, on bool) {
	if on {
		if o.extra[u] == nil {
			o.extra[u] = make(map[uint32]bool)
		}
		o.extra[u][v] = true
		return
	}
	delete(o.extra[u], v)
}

// check recomputes a result's size, volume, cut and conductance from the
// graph and requires exact equality with the reported fields. All but the
// conductance are integers, and the conductance is the same expression of
// them (graph.ConductanceFrom), so nothing here depends on floating-point
// drift between runs.
func (o *oracle) check(r *api.ClusterResult) error {
	if r.Truncated || r.Size != len(r.Members) {
		return fmt.Errorf("size %d but %d members (truncated=%v)", r.Size, len(r.Members), r.Truncated)
	}
	in := make(map[uint32]bool, len(r.Members))
	for _, v := range r.Members {
		if int(v) >= o.g.NumVertices() || in[v] {
			return fmt.Errorf("member %d out of range or repeated", v)
		}
		in[v] = true
	}
	vol, cut := o.g.Volume(r.Members), o.g.Boundary(r.Members)
	for _, v := range r.Members {
		for w := range o.extra[v] {
			vol++
			if !in[w] {
				cut++
			}
		}
	}
	total := o.g.TotalVolume() + 2*o.nExtra
	phi := graph.ConductanceFrom(total, vol, cut)
	if r.Volume != vol || r.Cut != cut || r.Conductance != phi {
		return fmt.Errorf("reported volume=%d cut=%d conductance=%v, graph gives %d %d %v",
			r.Volume, r.Cut, r.Conductance, vol, cut, phi)
	}
	return nil
}

// answer is one parsed query response: its epoch and per-seed results.
type answer struct {
	epoch   uint64
	results []api.ClusterResult
}

// parseAnswer decodes a /v1/cluster JSON body or a /v1/cluster/stream
// NDJSON body (header, one line per result, aggregate trailer).
func parseAnswer(body []byte, ndjson bool) (*answer, error) {
	if !ndjson {
		var resp api.ClusterResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if resp.Graph != graphName {
			return nil, fmt.Errorf("graph %q", resp.Graph)
		}
		return &answer{epoch: resp.Epoch, results: resp.Results}, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<28)
	var head struct {
		Graph   string  `json:"graph"`
		Epoch   uint64  `json:"epoch"`
		Results *int    `json:"results"`
		Error   *string `json:"error"`
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("empty stream")
	}
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		return nil, err
	}
	if head.Results == nil || head.Graph != graphName {
		return nil, fmt.Errorf("bad stream header %q", sc.Bytes())
	}
	a := &answer{epoch: head.Epoch}
	for i := 0; i < *head.Results; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("stream cut after %d of %d results", i, *head.Results)
		}
		var r api.ClusterResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		if r.Seeds == nil {
			return nil, fmt.Errorf("stream record %d is not a result: %q", i, sc.Bytes())
		}
		a.results = append(a.results, r)
	}
	var tail struct {
		Aggregate *api.Aggregate `json:"aggregate"`
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("stream has no trailer")
	}
	if err := json.Unmarshal(sc.Bytes(), &tail); err != nil || tail.Aggregate == nil {
		return nil, fmt.Errorf("bad stream trailer %q", sc.Bytes())
	}
	if tail.Aggregate.Queries != len(a.results) {
		return nil, fmt.Errorf("trailer counts %d queries, stream has %d", tail.Aggregate.Queries, len(a.results))
	}
	return a, sc.Err()
}

// checkSeeds requires one result per requested seed, in any order.
func checkSeeds(a *answer, seeds []uint32) error {
	if len(a.results) != len(seeds) {
		return fmt.Errorf("%d results for %d seeds", len(a.results), len(seeds))
	}
	want := append([]uint32(nil), seeds...)
	var got []uint32
	for _, r := range a.results {
		if len(r.Seeds) != 1 {
			return fmt.Errorf("result has seeds %v", r.Seeds)
		}
		got = append(got, r.Seeds[0])
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("results for seeds %v, asked for %v", got, want)
		}
	}
	return nil
}

// checkAnswer verifies every result of an answer against the graph at the
// answer's epoch.
func checkAnswer(o *oracle, a *answer) error {
	if a.epoch != o.epoch {
		return fmt.Errorf("answer at epoch %d checked against epoch %d", a.epoch, o.epoch)
	}
	for i := range a.results {
		if err := o.check(&a.results[i]); err != nil {
			return fmt.Errorf("seed %v: %w", a.results[i].Seeds, err)
		}
	}
	return nil
}

// verdict is the gate's outcome over a run.
type verdict struct {
	checked int
	wrong   int
	first   error // first mismatch, for the log
	// served is the first checked answers in epoch order (request order
	// within an epoch), for the determinism recount.
	served []servedAnswer
}

type servedAnswer struct {
	epoch  uint64
	result api.ClusterResult
}

func (v *verdict) fail(err error) {
	v.wrong++
	if v.first == nil {
		v.first = err
	}
}

// pendingRead is one distinct answer awaiting its check against the graph.
type pendingRead struct {
	rd *reader
	s  sample
	a  *answer
}

// gate checks every response of the run. Each one must answer its own
// request's seeds, and each reader's epochs must never decrease nor fall
// behind what the writer had acknowledged when the read was sent. Each
// distinct answer is then checked once against the graph, in epoch order
// while the oracle replays the writer's acknowledged batches, so it is
// compared with the graph at its own epoch.
func (lg *loadGen) gate(g *graph.CSR, seed uint64) *verdict {
	v := &verdict{}
	var reads []pendingRead
	for _, rd := range lg.readers {
		// Replay the client's request stream to recover each request's seeds.
		stream := newQueryStream(lg.w, g, seed, rd.id)
		seedsOf := make([][]uint32, rd.sent)
		for i := range seedsOf {
			_, seedsOf[i] = stream.next()
		}
		parsed := make([]*answer, len(rd.store.bodies))
		bad := make([]bool, len(rd.store.bodies))
		var last uint64
		for _, s := range rd.samples {
			if !s.ok() || bad[s.body] {
				continue
			}
			a := parsed[s.body]
			if a == nil {
				var err error
				if a, err = parseAnswer(rd.store.bodies[s.body], lg.w.seedsPer > 1); err != nil {
					bad[s.body] = true
					v.fail(fmt.Errorf("reader %d request %d: %w", rd.id, s.req, err))
					continue
				}
				parsed[s.body] = a
				reads = append(reads, pendingRead{rd, s, a})
			}
			if err := checkSeeds(a, seedsOf[s.req]); err != nil {
				v.fail(fmt.Errorf("reader %d request %d: %w", rd.id, s.req, err))
			}
			if a.epoch < last || a.epoch < s.minEpoch {
				v.fail(fmt.Errorf("reader %d request %d: epoch %d after epoch %d (writer had acknowledged %d)", rd.id, s.req, a.epoch, last, s.minEpoch))
			}
			last = a.epoch
		}
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].a.epoch < reads[j].a.epoch })

	batches, err := lg.ackedBatches()
	if err != nil {
		v.fail(err)
	}
	o := newOracle(g)
	next := 0
	for _, p := range reads {
		for next < len(batches) && batches[next].epoch <= p.a.epoch {
			o.apply(batches[next].req, batches[next].epoch)
			next++
		}
		v.checked++
		if err := checkAnswer(o, p.a); err != nil {
			v.fail(fmt.Errorf("reader %d request %d: %w", p.rd.id, p.s.req, err))
			continue
		}
		for _, r := range p.a.results {
			if len(v.served) < mismatchSample {
				v.served = append(v.served, servedAnswer{p.a.epoch, r})
			}
		}
	}
	return v
}

// ackedBatch is one ingest batch the server acknowledged, with its epoch.
type ackedBatch struct {
	req   api.IngestRequest
	epoch uint64
}

// ackedBatches returns the writer's acknowledged batches in epoch order;
// the writer is sequential, so their epochs must strictly increase.
func (lg *loadGen) ackedBatches() ([]ackedBatch, error) {
	if lg.writer == nil {
		return nil, nil
	}
	var out []ackedBatch
	for i, e := range lg.writer.epochs {
		if e == 0 {
			continue
		}
		if len(out) > 0 && e <= out[len(out)-1].epoch {
			return out, fmt.Errorf("ingest batch %d acknowledged at epoch %d after epoch %d", i, e, out[len(out)-1].epoch)
		}
		out = append(out, ackedBatch{lg.writer.reqs[i], e})
	}
	return out, nil
}
