package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/workloads"
)

// clusterScale is cluster-sweep's uniform workload scale: the grid takes
// about three seconds through the cluster on two cores.
const clusterScale = 30

// clusterWorkers is how many in-process workers the coordinator shards
// across, each running one cell at a time.
const clusterWorkers = 2

// loopback serves the handler mk builds for a fresh 127.0.0.1 port and
// returns the base URL and a stop function that waits for the server.
func loopback(mk func(host string) http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mk(ln.Addr().String())}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// handlerRecord is one worker request as the worker's own mux saw it.
type handlerRecord struct {
	start, end time.Time
	coreSecs   float64 // simulation seconds the worker's registry gained
}

// clusterTracer is the traced run's instrumentation of cluster-sweep: an
// Executor wrapped around the coordinator, an http.RoundTripper on the
// coordinator's client, and a middleware on each worker.
type clusterTracer struct {
	tr     *Recorder
	parent *atomic.Int64
	inner  http.RoundTripper
	reg    *metrics.Registry // the traced Runner's RunnerMetrics

	mu        sync.Mutex
	cells     map[string]cellSpan // cell key -> open cell span
	handled   map[string]chan handlerRecord
	batches   int
	batchedN  int
	wire      int64
	waits     []float64 // ms
	rtts      []float64 // ms
	coreStats *coreStats
}

type cellSpan struct {
	id    int
	start time.Time
}

func cellKey(workload, config string, width int) string {
	return fmt.Sprintf("%s/%s/w%d", workload, config, width)
}

// executor wraps the coordinator's ExecuteCell with a cluster span.
type tracedCoordinator struct {
	t     *clusterTracer
	coord *cluster.Coordinator
}

func (e tracedCoordinator) ExecuteCell(ctx context.Context, w *workloads.Workload, cfg core.Config, width, scale int, selfCheck bool) (*core.Result, error) {
	key := cellKey(w.Name, cfg.Name, width)
	start := time.Now()
	id := e.t.tr.Begin(int(e.t.parent.Load()), "cluster", "Coordinator.ExecuteCell", key)
	e.t.mu.Lock()
	e.t.cells[key] = cellSpan{id, start}
	e.t.mu.Unlock()
	res, err := e.coord.ExecuteCell(ctx, w, cfg, width, scale, selfCheck)
	e.t.tr.End(id)
	if err == nil {
		e.t.coreStats.add(cellTiming{Config: cfg.Name, Width: width, Instr: res.Instructions, Cycles: res.Cycles})
	}
	return res, err
}

// RoundTrip times one coordinator→worker request, counts its bytes, and
// for a cell batch hangs dispatch-wait, batch and worker spans under each
// cell's span.
func (t *clusterTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	sent := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(rbody))
	recv := time.Now()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.wire += int64(len(body) + len(rbody))
	if req.URL.Path != "/cells" {
		return resp, nil
	}
	var batch struct {
		Cells []cluster.CellSpec `json:"cells"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || len(batch.Cells) == 0 {
		return resp, nil
	}
	var hr handlerRecord
	select {
	case hr = <-t.handled[req.URL.Host]:
	default:
	}
	t.batches++
	t.batchedN += len(batch.Cells)
	t.rtts = append(t.rtts, recv.Sub(sent).Seconds()*1e3)
	w := 1 / float64(len(batch.Cells))
	for _, c := range batch.Cells {
		cs, ok := t.cells[cellKey(c.Workload, c.Config.Name, c.Width)]
		if !ok {
			continue
		}
		key := cellKey(c.Workload, c.Config.Name, c.Width)
		t.waits = append(t.waits, sent.Sub(cs.start).Seconds()*1e3)
		t.tr.Record(cs.id, "cluster", "dispatch-wait", key, cs.start, sent, 1)
		b := t.tr.Record(cs.id, "cluster", "batch", key, sent, recv, w)
		if !hr.start.IsZero() {
			h := t.tr.Record(b, "cluster", "worker POST /cells", key, hr.start, hr.end, w)
			coreStart := hr.end.Add(-time.Duration(hr.coreSecs * 1e9))
			t.tr.Record(h, "core", "worker core.RunChecked", key, coreStart, hr.end, w)
		}
	}
	return resp, nil
}

// middleware records each worker request's interval and the simulation
// seconds the worker's registry gained meanwhile. The coordinator holds
// one connection per worker, so a worker's requests never overlap.
func (t *clusterTracer) middleware(host string, reg *metrics.Registry, next http.Handler) http.Handler {
	ch := make(chan handlerRecord, 64) // far more than the batches one connection can have in flight
	t.mu.Lock()
	t.handled[host] = ch
	t.mu.Unlock()
	hist := reg.Histogram("cluster_worker_cell_seconds", "", nil)
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		before := hist.Sum()
		start := time.Now()
		next.ServeHTTP(rw, r)
		rec := handlerRecord{start, time.Now(), hist.Sum() - before}
		if r.URL.Path == "/cells" {
			select {
			case ch <- rec:
			default:
			}
		}
	})
}

// clusterRep is one cluster-sweep repetition's outcome.
type clusterRep struct {
	report     string
	runner     *experiments.Runner
	regens     int64
	dispatched int64
	completed  int64
	fallbacks  int64
	workerBusy float64 // seconds the workers' registries spent simulating
}

// runClusterGrid renders the grid through a fresh coordinator over fresh
// workers, so every worker regenerates its traces from the cell specs.
func runClusterGrid(cfg *runConfig, col *perf.Collector, t *clusterTracer) (*clusterRep, error) {
	var urls []string
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	var wregs []*metrics.Registry
	for i := 0; i < clusterWorkers; i++ {
		w := cluster.NewWorker(cluster.WorkerOptions{MaxConcurrent: 1, MaxTraceMem: 1 << 30})
		reg := metrics.NewRegistry()
		w.Instrument(reg)
		wregs = append(wregs, reg)
		url, stop, err := loopback(func(host string) http.Handler {
			if t == nil {
				return w.Handler()
			}
			return t.middleware(host, reg, w.Handler())
		})
		if err != nil {
			return nil, err
		}
		stops = append(stops, stop)
		urls = append(urls, url)
	}
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if t != nil {
		t.inner = transport
		rt = t
	}
	coord, err := cluster.New(urls, cluster.Options{Seed: cfg.Seed, ProbeEvery: -1,
		Client: &http.Client{Transport: rt, Timeout: 3 * time.Minute}})
	if err != nil {
		return nil, err
	}
	creg := metrics.NewRegistry()
	coord.Instrument(creg)
	coord.Start()
	var exec experiments.Executor = coord
	var cur atomic.Int64
	var tr *Recorder
	if t != nil {
		exec = tracedCoordinator{t, coord}
		tr = t.tr
		t.parent = &cur
	}
	r := experiments.NewRunner(clusterScale).WithWorkers(2).WithPerf(col).WithExecutor(exec)
	if t != nil {
		r.WithMetrics(experiments.NewRunnerMetrics(t.reg, "bench"))
	}
	root := tr.Begin(0, rootLayer, "cluster-sweep rep", "")
	got, rerr := renderAll(r, tr, root, &cur)
	tr.End(root)
	coord.Close()
	if rerr != nil {
		return nil, rerr
	}
	out := &clusterRep{report: got, runner: r}
	for _, n := range coord.Workers() {
		d := creg.CounterVec("cluster_dispatched_total", "", "worker").With(n).Value()
		c := creg.CounterVec("cluster_completed_total", "", "worker").With(n).Value()
		f := creg.CounterVec("cluster_failed_total", "", "worker").With(n).Value()
		h := creg.CounterVec("cluster_hedge_wasted_total", "", "worker").With(n).Value()
		if d != c+f+h {
			return nil, fmt.Errorf("worker %s: cluster_dispatched_total %d != completed %d + failed %d + hedge_wasted %d", n, d, c, f, h)
		}
		out.dispatched += d
		out.completed += c
	}
	out.fallbacks = creg.Counter("cluster_local_fallback_total", "").Value()
	for i, u := range urls {
		var st cluster.WorkerStatus
		if err := getJSON(http.DefaultClient, u+"/workerz", &st); err != nil {
			return nil, err
		}
		out.regens += st.TraceRegens
		out.workerBusy += wregs[i].Histogram("cluster_worker_cell_seconds", "", nil).Sum()
	}
	return out, nil
}

// getJSON GETs url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// clusterSweep: the paper grid through a cluster.Coordinator over two
// in-process workers on loopback HTTP. See README.md.
func clusterSweep(cfg *runConfig) (*result, error) {
	res := newResult()
	if err := sweepSetup(cfg, clusterScale, res); err != nil {
		return nil, err
	}
	ref := filepath.Join(cfg.Refs, refName(clusterScale))
	mark := cfg.tr.Mark()
	var lat []float64
	var last, lastTraced *clusterRep
	var lastTracer *clusterTracer
	reps, err := repeat(cfg.Seconds, cfg.Traced, func(rep int, on bool) (repStats, error) {
		col := &perf.Collector{}
		var t *clusterTracer
		if on {
			cfg.tr.Truncate(mark)
			t = &clusterTracer{tr: cfg.tr, reg: metrics.NewRegistry(), cells: map[string]cellSpan{},
				handled: map[string]chan handlerRecord{}, coreStats: &coreStats{}}
		}
		out, err := runClusterGrid(cfg, col, t)
		if err == nil {
			err = checkReport(out.report, ref)
		}
		ms, instr := cellLatencies(col)
		st := repStats{Instructions: instr, Ops: len(ms)}
		if err != nil {
			return st, err
		}
		last = out
		if on {
			lastTracer, lastTraced = t, out
		} else {
			lat = append(lat, ms...)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	// The same grid, run locally once, must render the same report.
	local, err := renderAll(experiments.NewRunner(clusterScale).WithWorkers(2), nil, 0, new(atomic.Int64))
	if err != nil {
		return nil, fmt.Errorf("local run: %w", err)
	}
	if local != last.report {
		return nil, fmt.Errorf("cluster report differs from a local run of the same grid")
	}
	for _, r := range reps {
		res.Attempted += r.Ops
	}
	repMetrics(reps, res.E2E, res)
	opMetrics(res, "cell", lat, sweepTailPct)
	if cfg.Traced {
		tracingOverhead(reps, res)
		t, tc := lastTracer, lastTraced
		t.coreStats.report(res, tc.workerBusy)
		experimentsLayer(res, runnerCounts(t.reg, "bench"))
		if err := measureRender(tc.runner, tc.report, res); err != nil {
			return nil, err
		}
		res.layer("cluster.batches", float64(t.batches))
		cpb := ratio{float64(t.batchedN), float64(t.batches), "cells sent / batches"}
		res.layer("cluster.cells_per_batch", cpb.Value())
		res.note("cluster.cells_per_batch", cpb.String())
		res.layer("cluster.dispatch_wait_ms.p50", median(t.waits))
		res.layer("cluster.batch_rtt_ms.p50", median(t.rtts))
		res.layer("cluster.wire_bytes", float64(t.wire))
		res.layer("cluster.worker_regens", float64(tc.regens))
		ur := ratio{float64(tc.completed), float64(tc.dispatched), "completed / dispatched cells"}
		res.layer("cluster.useful_ratio", ur.Value())
		res.note("cluster.useful_ratio", ur.String())
		res.layer("cluster.local_fallbacks", float64(tc.fallbacks))
	}
	return res, nil
}
