// Command perfbench is the repository benchmark: it serves the Medium
// soc-LJ stand-in from an in-process lgc-serve stack (service.NewServer on
// a loopback listener), drives one workload against it from this process
// with at most two client connections, checks every answer against the
// graph, and prints one JSON result line.
//
//	perfbench --workload interactive --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// workload untraced and then traced, and times the public calls into each
// module (graph, wal, ligra, core, workspace, sched, service, api),
// printing the per-layer metrics; its spans are written under
// .bench_build/spans when the run ends. README.md maps every metric to its
// layer and to the end-to-end metric it should move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/graph"
	"parcluster/internal/service"
)

const (
	buildDir  = ".bench_build"
	setupReps = 7
	// warmup fills the cache and pools before timing. The compactor's
	// first fold comes 30 s after the server starts, inside a 30 s phase
	// after this warm-up, and ends seconds before the heap is read.
	warmup = 4 * time.Second
	// maxWriterLate bounds the open-loop writer's own p99 lateness (see
	// sample.late): beyond five schedule periods the generator, not the
	// server, is failing to hold its rate, and the run is invalid.
	maxWriterLate = 5 * ingestPeriod
	// setupEps is the ε of the setup's first query, an interactive one on
	// every workload, so setup_s times the start, not a batch of kernels.
	setupEps = 1e-4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "interactive", "workload: interactive, batch or ingest_mix")
	seed := flag.Uint64("seed", 1, "request-stream seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if res != nil {
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("# %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
		line, jerr := json.Marshal(res)
		if jerr != nil {
			err = errors.Join(err, jerr)
		} else {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run. A non-nil result with a non-nil error is
// a completed run that failed its correctness or validity gate.
func run(w *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	g, err := makeGraph()
	if err != nil {
		return nil, err
	}
	path, err := writeGraph(tmp, w.format, g)
	if err != nil {
		return nil, err
	}

	// Cold start, repeated; the last stack serves the measured phases.
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		st, d, err = coldStart(w, g, path, filepath.Join(tmp, fmt.Sprintf("wal-%d", i)), seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer st.close() // error paths; the success paths close and check

	lg := newLoadGen(w, g, seed)
	defer lg.close()
	origin := time.Now()
	if traced {
		return tracedRun(w, g, seed, dur, st, lg, origin, path, tmp)
	}
	p := phase{from: warmup, to: warmup + dur}
	if err := lg.drive(st.url, origin, origin.Add(p.to), nil); err != nil {
		return nil, err
	}
	heap := heapMB(lg.retained() + csrBytes(g))
	if err := st.close(); err != nil {
		return nil, err
	}
	return lg.endToEnd(g, seed, p, setups, heap)
}

// coldStart times one start from registering the graph file to the first
// correct answer: the file read (text parse for heap, mmap open for .lgz)
// and, for ingest_mix, the WAL open all happen inside it.
func coldStart(w *workload, g *graph.CSR, path, walDir string, seed uint64) (*stack, time.Duration, error) {
	vertex := uint32(newRand(seed, 3).Intn(g.NumVertices()))
	body, err := json.Marshal(api.ClusterRequest{
		Graph: graphName, Algo: "prnibble", Seeds: []uint32{vertex},
		Params: api.Params{Alpha: alpha, Epsilon: setupEps}, Class: "interactive",
	})
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	start := time.Now()
	reg, err := w.newRegistry(path, walDir)
	if err != nil {
		return nil, 0, err
	}
	st, err := startStack(reg, service.Config{BatchLanes: w.batchLanes})
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	status, err := post(c, st.url+"/v1/cluster", body, "", &buf)
	d := time.Since(start)
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %s", status, buf.Bytes())
	}
	if err == nil {
		var a *answer
		if a, err = parseAnswer(buf.Bytes(), false); err == nil {
			err = errors.Join(checkSeeds(a, []uint32{vertex}), checkAnswer(newOracle(g), a))
		}
	}
	if err != nil {
		return nil, 0, errors.Join(err, st.close())
	}
	return st, d, nil
}

// heapMB forces two collections (the second empties sync.Pool victim
// caches) and returns the live Go heap in MiB, minus own bytes the
// benchmark itself holds.
func heapMB(own int64) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(int64(m.HeapAlloc)-own) / (1 << 20)
}

// csrBytes is the heap size of the benchmark's own copy of the graph.
func csrBytes(g *graph.CSR) int64 {
	return int64(len(g.Offsets()))*8 + int64(g.TotalVolume())*4
}

// endToEnd checks the run's answers and assembles the end-to-end metrics.
func (lg *loadGen) endToEnd(g *graph.CSR, seed uint64, p phase, setups []float64, heap float64) (*result, error) {
	rs := lg.readStats(p)
	wlat, wlate, wattempts, wfailed := lg.writeStats(p)
	v := lg.gate(g, seed)
	res := &result{
		Correct:   v.wrong == 0,
		Attempted: rs.attempts + wattempts,
		Failed:    rs.failed + wfailed + v.wrong,
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"query_p50_ms":  {rs.p50MS, "ms"},
			"query_tail_ms": {rs.tailMS, "ms"},
			"query_per_s":   {rs.perSec, "1/s"},
			"cluster_per_s": {rs.perSec * float64(lg.w.seedsPer), "1/s"},
			"heap_mb":       {heap, "MiB"},
		},
	}
	fmt.Printf("# workload %s: %d reads, %d answers checked, %d wrong, error_rate %.6g\n",
		lg.w.name, rs.attempts, v.checked, v.wrong, float64(res.Failed)/float64(max(res.Attempted, 1)))
	if lg.writer != nil {
		fmt.Printf("# writer: %d batches, %d failed, ingest p50 %.4g ms p99 %.4g ms, late p99 %.4g ms\n",
			wattempts, wfailed, quantile(wlat, 0.5), quantile(wlat, 0.99), quantile(wlate, 0.99))
	}
	return res, verdictErr(v, wlate)
}

// verdictErr fails a run whose answers were wrong or whose open-loop
// writer fell behind its schedule.
func verdictErr(v *verdict, writerLateMS []float64) error {
	var err error
	if v.wrong > 0 {
		err = fmt.Errorf("correctness gate: %d wrong answers; first: %v", v.wrong, v.first)
	}
	if late := quantile(writerLateMS, 0.99); late > ms(maxWriterLate) {
		err = errors.Join(err, fmt.Errorf("invalid run: writer p99 lateness %.3g ms exceeds %v", late, maxWriterLate))
	}
	return err
}
