package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"parcluster/internal/api"
	"parcluster/internal/graph"
	"parcluster/internal/service"
	"parcluster/internal/wal"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name     string
	format   string  // on-disk graph format the server loads: "adj" text (heap CSR) or "lgz" (mmap)
	eps      float64 // PR-Nibble ε of every query
	class    string  // scheduling class of every query
	path     string  // query endpoint
	readers  int     // closed-loop query clients, one connection each
	seedsPer int     // seeds per query (>1 = seed plus its BFS ball)
	zipf     bool    // Zipfian seeds over a seeded permutation (else uniform)
	// tail is the percentile query_tail_ms reports (per slice, see
	// phaseStats): p99 where a run has thousands of queries, p75 for
	// batch's ~60.
	tail       float64
	batchLanes int  // server -batch-lanes
	ingest     bool // adds the open-loop writer and a WAL (fsync always)
}

// workloads are the benchmark's traffic mixes; later changes cite them by
// name, and README.md gives the reason for each. interactive is the
// no-change control for dense, decode and batching work, batch for HTTP
// and cache work, and ingest_mix differs from interactive by the writer.
var workloads = []*workload{
	{
		name:   "interactive",
		format: "adj", eps: 1e-4, class: "interactive", path: "/v1/cluster",
		readers: 2, seedsPer: 1, zipf: true, tail: 0.99,
	},
	{
		name:   "batch",
		format: "lgz", eps: 1e-6, class: "batch", path: "/v1/cluster/stream",
		readers: 1, seedsPer: 16, batchLanes: 64, tail: 0.75,
	},
	{
		name:   "ingest_mix",
		format: "adj", eps: 1e-4, class: "interactive", path: "/v1/cluster",
		readers: 1, seedsPer: 1, ingest: true, tail: 0.99,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stack is one in-process lgc-serve: registry, engine and HTTP server on a
// loopback listener, configured as cmd/lgc-serve configures them.
type stack struct {
	reg  *service.Registry
	eng  *service.Engine
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// newRegistry registers the workload's graph file the way lgc-serve's
// -graph flag does, with a WAL under walDir when the workload ingests.
func (w *workload) newRegistry(graphPath, walDir string) (*service.Registry, error) {
	reg := service.NewRegistry(0, false)
	if w.ingest {
		policy, interval, err := wal.ParseSyncPolicy("always")
		if err != nil {
			return nil, err
		}
		if err := reg.EnableWAL(service.WALConfig{Dir: walDir, Policy: policy, Interval: interval}); err != nil {
			return nil, err
		}
	}
	reg.RegisterFileFormat(graphName, graphPath, w.format)
	return reg, nil
}

func startStack(reg *service.Registry, cfg service.Config) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eng := service.NewEngine(reg, cfg)
	s := &stack{reg: reg, eng: eng, srv: service.NewServer(eng), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	return s, nil
}

// close stops the listener and waits for it, then the engine, and closes
// the registry's logs. Idempotent.
func (s *stack) close() error {
	s.closeOnce.Do(func() {
		err := s.hs.Close()
		<-s.done
		s.srv.Close()
		s.eng.Close()
		s.closeErr = errors.Join(err, s.reg.Close())
	})
	return s.closeErr
}

// newClient returns an HTTP client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// post sends body and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, reqID string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(api.HeaderRequestID, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// sample is one request as the load generator saw it. Times are offsets
// from the phase origin.
type sample struct {
	start, end time.Duration
	// late is the open-loop writer's own lateness: send time minus the
	// later of its due time and the previous write's completion (its one
	// connection is busy until then). Time spent waiting for a slow server
	// counts in the write's latency, which runs from its due time.
	late     time.Duration
	req      int32 // index in the client's request stream
	body     int32 // index of the response in the client's bodyStore; -1 = none
	status   int32
	size     int32  // response bytes
	minEpoch uint64 // writer's highest acknowledged epoch when the read was sent
}

func (s sample) ok() bool { return s.status == http.StatusOK }

// bodyStore keeps every distinct response body for the correctness gate,
// which runs after the measured phase so checking costs no request time.
// Bodies live in 1 MiB chunks so their heap share is known exactly and can
// be taken out of heap_mb.
type bodyStore struct {
	chunks [][]byte
	bodies [][]byte
	seen   hashIndex
	hseed  maphash.Seed
}

const chunkBytes = 1 << 20

func newBodyStore() *bodyStore {
	return &bodyStore{hseed: maphash.MakeSeed()}
}

// add returns the index of b in the store, storing it unless identical
// bytes were stored before (a repeated cached answer is kept, and checked,
// once).
func (s *bodyStore) add(b []byte) int32 {
	idx, fresh := s.seen.put(maphash.Bytes(s.hseed, b), int32(len(s.bodies)))
	if !fresh {
		return idx
	}
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < len(b) {
		size := chunkBytes
		if len(b) > size {
			size = (len(b) + chunkBytes - 1) / chunkBytes * chunkBytes
		}
		s.chunks = append(s.chunks, make([]byte, 0, size))
		last++
	}
	off := len(s.chunks[last])
	s.chunks[last] = append(s.chunks[last], b...)
	s.bodies = append(s.bodies, s.chunks[last][off:len(s.chunks[last]):len(s.chunks[last])])
	return idx
}

// retained is the heap the store holds, in bytes.
func (s *bodyStore) retained() int64 {
	n := int64(cap(s.bodies))*24 + int64(cap(s.seen.keys))*8 + int64(cap(s.seen.vals))*4
	for _, c := range s.chunks {
		n += int64(cap(c))
	}
	return n
}

// hashIndex maps 64-bit hashes to indexes by open addressing in two
// slices, so its heap share is exact (a map's is not, and it would grow
// heap_mb with the number of distinct answers, that is with throughput).
// A zero key marks a free slot; a hash of 0 is stored as 1.
type hashIndex struct {
	keys []uint64
	vals []int32
	n    int
}

// put returns the index stored under x, or stores v under x and returns
// it with fresh set.
func (h *hashIndex) put(x uint64, v int32) (idx int32, fresh bool) {
	if x == 0 {
		x = 1
	}
	if 4*(h.n+1) > 3*len(h.keys) {
		keys, vals := h.keys, h.vals
		size := max(2*len(keys), 1<<16)
		h.keys, h.vals, h.n = make([]uint64, size), make([]int32, size), 0
		for i, k := range keys {
			if k != 0 {
				h.put(k, vals[i])
			}
		}
	}
	mask := uint64(len(h.keys) - 1)
	for i := x & mask; ; i = (i + 1) & mask {
		switch h.keys[i] {
		case x:
			return h.vals[i], false
		case 0:
			h.keys[i], h.vals[i] = x, v
			h.n++
			return v, true
		}
	}
}

// span is one timed call made by the benchmark: a request over HTTP or a
// call into a module. Spans of one request share trace; parent names the
// span that caused this one (0 = root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; nil records nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{trace, id, parent, name, int64(start.Sub(t.origin)), int64(end.Sub(t.origin))})
	return id
}

// reader is one closed-loop query client.
type reader struct {
	id      int
	w       *workload
	client  *http.Client
	stream  *queryStream
	sent    int32
	store   *bodyStore
	samples []sample
	buf     bytes.Buffer
}

// run sends queries back to back until the phase ends. acked (nil without
// a writer) is the writer's highest acknowledged epoch.
func (rd *reader) run(url string, origin, until time.Time, acked *atomic.Uint64, tr *tracer) {
	root := tr.add(fmt.Sprintf("reader-%d", rd.id), 0, "reader", origin, origin)
	for time.Now().Before(until) {
		body, _ := rd.stream.next()
		var id string
		if tr != nil {
			id = fmt.Sprintf("r%d-%d", rd.id, rd.sent)
		}
		var minEpoch uint64
		if acked != nil {
			minEpoch = acked.Load()
		}
		start := time.Now()
		status, err := post(rd.client, url+rd.w.path, body, id, &rd.buf)
		end := time.Now()
		tr.add(id, root, "http"+rd.w.path, start, end)
		s := sample{start: start.Sub(origin), end: end.Sub(origin),
			req: rd.sent, body: -1, status: int32(status), minEpoch: minEpoch}
		if err != nil {
			s.status = 0
		} else {
			s.body = rd.store.add(rd.buf.Bytes())
			s.size = int32(rd.buf.Len())
		}
		rd.samples = append(rd.samples, s)
		rd.sent++
	}
}

// writer is the open-loop ingest client: one batch per ingestPeriod, on
// schedule, over one connection.
type writer struct {
	client  *http.Client
	stream  *ingestStream
	reqs    []api.IngestRequest
	epochs  []uint64 // acknowledged epoch per batch (0 = failed)
	samples []sample
	buf     bytes.Buffer
}

func (wr *writer) run(url string, origin, until time.Time, acked *atomic.Uint64, tr *tracer) error {
	root := tr.add("writer", 0, "writer", origin, origin)
	first := time.Now()
	var prevEnd time.Time
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * ingestPeriod)
		if !due.Before(until) {
			return nil
		}
		time.Sleep(time.Until(due))
		ready := due
		if prevEnd.After(ready) {
			ready = prevEnd
		}
		req := wr.stream.next()
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var id string
		if tr != nil {
			id = "w-" + strconv.Itoa(k)
		}
		start := time.Now()
		status, err := post(wr.client, url+"/v1/graphs/"+graphName+"/edges", body, id, &wr.buf)
		end := time.Now()
		tr.add(id, root, "http/v1/graphs/edges", start, end)
		prevEnd = end
		s := sample{start: due.Sub(origin), end: end.Sub(origin), late: start.Sub(ready), req: int32(k), body: -1, status: int32(status)}
		var epoch uint64
		if err != nil {
			s.status = 0
		} else if status == http.StatusOK {
			var resp api.IngestResponse
			if err := json.Unmarshal(wr.buf.Bytes(), &resp); err != nil {
				return fmt.Errorf("ingest response: %w", err)
			}
			if resp.Inserted != len(req.Edges) || resp.Deleted != len(req.Deletes) {
				return fmt.Errorf("ingest batch %d: acknowledged %d+%d records, sent %d+%d", k, resp.Inserted, resp.Deleted, len(req.Edges), len(req.Deletes))
			}
			epoch = resp.Epoch
			if epoch > acked.Load() {
				acked.Store(epoch)
			}
		}
		wr.reqs = append(wr.reqs, req)
		wr.epochs = append(wr.epochs, epoch)
		wr.samples = append(wr.samples, s)
	}
}

// loadGen is the whole client side of a run.
type loadGen struct {
	w       *workload
	readers []*reader
	writer  *writer // nil unless the workload ingests
	acked   atomic.Uint64
}

func newLoadGen(w *workload, g *graph.CSR, seed uint64) *loadGen {
	lg := &loadGen{w: w}
	for i := 0; i < w.readers; i++ {
		lg.readers = append(lg.readers, &reader{
			id: i, w: w, client: newClient(), stream: newQueryStream(w, g, seed, i), store: newBodyStore(),
		})
	}
	if w.ingest {
		lg.writer = &writer{client: newClient(), stream: newIngestStream(g, seed)}
	}
	return lg
}

// phase is one window of a run: requests that started inside
// [from, to) (offsets from origin) are its samples.
type phase struct {
	from, to time.Duration
}

// drive runs every client against url from now until the end of the last
// phase and returns once all have stopped.
func (lg *loadGen) drive(url string, origin time.Time, until time.Time, tr *tracer) error {
	var wg sync.WaitGroup
	var werr error
	if lg.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werr = lg.writer.run(url, origin, until, &lg.acked, tr)
		}()
	}
	for _, rd := range lg.readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			var acked *atomic.Uint64
			if lg.writer != nil {
				acked = &lg.acked
			}
			rd.run(url, origin, until, acked, tr)
		}(rd)
	}
	wg.Wait()
	return werr
}

func (lg *loadGen) close() {
	for _, rd := range lg.readers {
		rd.client.CloseIdleConnections()
	}
	if lg.writer != nil {
		lg.writer.client.CloseIdleConnections()
	}
}

// in reports whether s started inside the phase.
func (p phase) in(s sample) bool { return s.start >= p.from && s.start < p.to }

// phaseStats summarizes the reads of one phase.
type phaseStats struct {
	attempts int
	failed   int
	// p50MS, tailMS and perSec are taken per slice — slices consecutive,
	// equal-count runs of the phase's reads — and the best slice is
	// reported: the lowest p50 and tail (workload.tail), the highest rate.
	// Contention from other tenants of a shared host only ever slows a
	// slice down, in bursts seconds long, so the best slice is the
	// steadiest estimate of what the program itself costs.
	p50MS, tailMS, perSec float64
}

const slices = 10

func (lg *loadGen) readStats(p phase) phaseStats {
	var ps phaseStats
	var all []sample
	var ends []time.Duration
	for _, rd := range lg.readers {
		for _, s := range rd.samples {
			if !p.in(s) {
				continue
			}
			ps.attempts++
			if s.ok() {
				ends = append(ends, s.end)
			} else {
				ps.failed++
			}
			all = append(all, s)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	ps.p50MS, ps.tailMS = math.Inf(1), math.Inf(1)
	for i := 0; i < slices; i++ {
		var lat []float64
		for _, s := range all[i*len(all)/slices : (i+1)*len(all)/slices] {
			lat = append(lat, ms(s.end-s.start))
		}
		if len(lat) > 0 {
			ps.p50MS = min(ps.p50MS, quantile(lat, 0.5))
			ps.tailMS = min(ps.tailMS, quantile(lat, lg.w.tail))
		}
	}
	ps.perSec = sliceRate(ends, slices)
	return ps
}

// sliceRate splits the completion times into k slices of equal count and
// returns the highest slice rate, (completions − 1) / (last − first
// completion): the rate between a slice's completions, which needs no
// window edge.
func sliceRate(ends []time.Duration, k int) float64 {
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	k = min(k, len(ends)/2) // at least two completions a slice
	var best float64
	for i := 0; i < k; i++ {
		lo, hi := i*len(ends)/k, (i+1)*len(ends)/k
		if ends[hi-1] > ends[lo] {
			best = max(best, float64(hi-lo-1)/(ends[hi-1]-ends[lo]).Seconds())
		}
	}
	return best
}

// writeStats returns the writer's latencies (from each batch's due time)
// and lateness in ms for the batches due inside the phase, plus counts.
func (lg *loadGen) writeStats(p phase) (lat, late []float64, attempts, failed int) {
	if lg.writer == nil {
		return nil, nil, 0, 0
	}
	for _, s := range lg.writer.samples {
		if !p.in(s) {
			continue
		}
		attempts++
		if !s.ok() {
			failed++
		}
		lat = append(lat, ms(s.end-s.start))
		late = append(late, ms(s.late))
	}
	return lat, late, attempts, failed
}

// retained is the heap the load generator itself holds (bodies and
// samples), which heap_mb excludes.
func (lg *loadGen) retained() int64 {
	var n int64
	for _, rd := range lg.readers {
		n += rd.store.retained() + int64(cap(rd.samples))*int64(unsafe.Sizeof(sample{}))
	}
	return n
}
