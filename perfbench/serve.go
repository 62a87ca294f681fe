package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workloads"
)

// serve-mixed's load shape. README.md gives the reason for each value.
const (
	serveScale      = 10     // uniform workload scale of every job
	serveRate       = 300.0  // mean arrivals per second in the load segments
	serveSegments   = 4      // load segments; each has its own fresh and stored cells
	zipfS           = 1.1    // popularity skew over the cached cells
	p99LimitMS      = 200.0  // latency limit of the capacity probe
	probeSteps      = 6      // steps of each fixed-length bisection of the capacity probe
	probeBisections = 2      // independent bisections; the best counts
	probeLo         = 1000.0 // jobs/s assumed to pass
	probeHi         = 16000.0
	pollInterval    = time.Millisecond
)

// cachedWidths, freshWidths and storedWidths split the cell universe:
// cached cells are computed in set-up and repeat from the server's memory
// cache; stored cells are written to the store in set-up and first
// requested in the load; fresh cells are first computed in the load.
// Segment s uses fresh and stored widths offset by s, so every segment
// has its own cells of the same cost. Fresh cells come from the four
// workloads whose scale-10 traces are of similar length (7.5k-11.6k
// records): compress's is ten times shorter and ijpeg's ten times
// longer, and mixing them would put the p99 on the edge between groups.
var (
	cachedWidths   = []int{4, 8, 16, 32, 2048}
	freshWidths    = []int{12, 24, 48}
	storedWidths   = []int{40}
	freshWorkloads = []string{"espresso", "eqntott", "li", "go"}
)

func segWidths(base []int, seg int) []int {
	out := make([]int, len(base))
	for i, w := range base {
		out[i] = w + seg
	}
	return out
}

// cell is one (workload, config, width) job target.
type cell struct {
	Workload, Config string
	Width            int
}

func (c cell) key() string { return cellKey(c.Workload, c.Config, c.Width) }

func grid(widths []int) []cell { return gridOf(allNames(), widths) }

func gridOf(names []string, widths []int) []cell {
	var out []cell
	for _, n := range names {
		for _, cfg := range core.Configs() {
			for _, width := range widths {
				out = append(out, cell{n, cfg.Name, width})
			}
		}
	}
	return out
}

func allNames() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}

func freshGrid(seg int) []cell { return gridOf(freshWorkloads, segWidths(freshWidths, seg)) }

// serveUniverse lists every cell serve-mixed can request.
func serveUniverse() []cell {
	cells := grid(cachedWidths)
	for seg := 0; seg < serveSegments; seg++ {
		cells = append(cells, freshGrid(seg)...)
		cells = append(cells, grid(segWidths(storedWidths, seg))...)
	}
	return cells
}

const serveRefName = "serve-scale10-cycles.json"

func loadServeRefs(dir string) (map[string]int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, serveRefName))
	if err != nil {
		return nil, fmt.Errorf("reading reference cycles: %w", err)
	}
	refs := map[string]int64{}
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("reference cycles: %w", err)
	}
	for _, c := range serveUniverse() {
		if _, ok := refs[c.key()]; !ok {
			return nil, fmt.Errorf("reference cycles lack %s", c.key())
		}
	}
	return refs, nil
}

// job kinds.
const (
	kindCached = "cached"
	kindStored = "stored"
	kindFresh  = "fresh"
)

// plannedJob is one arrival of the open-loop schedule.
type plannedJob struct {
	due  time.Duration // offset from the phase start
	cell cell
	kind string
}

// zipfPicker draws cached cells with skewed popularity; the seed decides
// which cells are popular.
type zipfPicker struct {
	cells []cell
	z     *rand.Zipf
}

func newZipfPicker(rng *rand.Rand) *zipfPicker {
	cells := grid(cachedWidths)
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return &zipfPicker{cells, rand.NewZipf(rng, zipfS, 1, uint64(len(cells)-1))}
}

func (p *zipfPicker) pick() cell { return p.cells[p.z.Uint64()] }

// planSteady lays out n Poisson arrivals at the given rate over cached
// cells.
func planSteady(rng *rand.Rand, p *zipfPicker, n int, rate float64) []plannedJob {
	jobs := make([]plannedJob, n)
	var t float64
	for i := range jobs {
		t += rng.ExpFloat64() / rate
		jobs[i] = plannedJob{due: time.Duration(t * 1e9), cell: p.pick(), kind: kindCached}
	}
	return jobs
}

// planSegment is planSteady with the segment's fresh and stored cells each
// requested once at seeded positions.
func planSegment(rng *rand.Rand, p *zipfPicker, seg, n int, rate float64) []plannedJob {
	jobs := planSteady(rng, p, n, rate)
	special := append(tagged(freshGrid(seg), kindFresh), tagged(grid(segWidths(storedWidths, seg)), kindStored)...)
	for i, pos := range rng.Perm(n)[:min(len(special), n)] {
		jobs[pos].cell, jobs[pos].kind = special[i].cell, special[i].kind
	}
	return jobs
}

func tagged(cells []cell, kind string) []plannedJob {
	out := make([]plannedJob, len(cells))
	for i, c := range cells {
		out[i] = plannedJob{cell: c, kind: kind}
	}
	return out
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	plannedJob
	id       string
	ok       bool
	refused  bool          // 429/503 at admission
	failed   bool          // ended failed or canceled
	err      error         // the client could not follow the job
	late     time.Duration // generator lateness
	latency  time.Duration // due time → terminal state seen
	sent     time.Time     // POST issued
	instr    int64
	cycles   int64
	rootSpan int
}

// latencyMS is the job's latency, +Inf for a refused or failed job: it
// misses every limit. (ok is false for both.)
func (o *jobOutcome) latencyMS() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return o.latency.Seconds() * 1e3
}

// serveEnv is one running ddserve-shaped server and its client.
type serveEnv struct {
	srv       *server.Server
	url       string
	stop      func()
	transport *http.Transport
	client    *http.Client
	tr        *serveTracer
	store     *timedStore
}

type spanCtxKey struct{}

type spanRef struct {
	id    int
	group string
}

// serveTracer is the traced run's http.RoundTripper on the serve client:
// each request becomes a server-layer span under its job's span.
type serveTracer struct {
	rec   *Recorder
	inner http.RoundTripper

	mu      sync.Mutex
	submits []float64 // ms
	polls   []float64 // ms
}

func (t *serveTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	t1 := time.Now()
	ref, ok := req.Context().Value(spanCtxKey{}).(spanRef)
	if !ok {
		return resp, nil // not a load job: set-up traffic or trace fetches
	}
	name := req.Method + " /jobs"
	if req.Method == http.MethodGet {
		name += "/{id}"
	}
	t.rec.Record(ref.id, "server", name, ref.group, t0, t1, 1)
	t.mu.Lock()
	if req.Method == http.MethodPost {
		t.submits = append(t.submits, t1.Sub(t0).Seconds()*1e3)
	} else {
		t.polls = append(t.polls, t1.Sub(t0).Seconds()*1e3)
	}
	t.mu.Unlock()
	return resp, nil
}

// timedStore is the traced run's experiments.ResultStore, passed through
// server.Options.Store: it times every Get and PutWithPerf while on.
type timedStore struct {
	inner experiments.ResultStore
	on    atomic.Bool

	mu           sync.Mutex
	gets, hits   int
	getMS, putMS []float64
}

func (s *timedStore) Get(k store.Key) (*core.Result, error) {
	t0 := time.Now()
	res, err := s.inner.Get(k)
	if s.on.Load() {
		d := time.Since(t0).Seconds() * 1e3
		s.mu.Lock()
		s.gets++
		if err == nil {
			s.hits++
		}
		s.getMS = append(s.getMS, d)
		s.mu.Unlock()
	}
	return res, err
}

func (s *timedStore) PutWithPerf(k store.Key, res *core.Result, p *store.PerfInfo) error {
	t0 := time.Now()
	err := s.inner.PutWithPerf(k, res, p)
	if s.on.Load() {
		d := time.Since(t0).Seconds() * 1e3
		s.mu.Lock()
		s.putMS = append(s.putMS, d)
		s.mu.Unlock()
	}
	return err
}

func (s *timedStore) Stats() store.Stats { return s.inner.Stats() }

// startServe sets serve-mixed up: build and generate the six traces, seed
// the store with the stored cells, start an in-process server on a
// loopback port, and warm its memory cache with the cached cells.
func startServe(cfg *runConfig, tr *Recorder, dir string, bs *buildStats) (*serveEnv, error) {
	root := tr.Begin(0, rootLayer, "setup", "")
	defer tr.End(root)
	uniform := func(*workloads.Workload) int { return serveScale }
	if err := buildPrograms(tr, root, uniform, bs); err != nil {
		return nil, err
	}
	if err := generateTraces(tr, root, serveScale, bs); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	var rs experiments.ResultStore = st
	env := &serveEnv{}
	if cfg.Traced {
		env.store = &timedStore{inner: st}
		rs = env.store
	}
	seed := tr.Begin(root, "experiments", "seed store", "")
	seeder := experiments.NewRunner(serveScale).WithWorkers(2).WithStoreHandle(rs)
	var stored []int
	for seg := 0; seg < serveSegments; seg++ {
		stored = append(stored, segWidths(storedWidths, seg)...)
	}
	err = seeder.Prefetch(workloads.All(), core.Configs(), stored)
	tr.End(seed)
	if err != nil {
		return nil, fmt.Errorf("seeding the store: %w", err)
	}
	env.srv = server.New(server.Options{Workers: 2, QueueDepth: 4096, Scale: serveScale, Store: rs})
	env.url, env.stop, err = loopback(func(string) http.Handler { return env.srv.Handler() })
	if err != nil {
		return nil, err
	}
	env.srv.Start()
	env.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	var rt http.RoundTripper = env.transport
	if cfg.Traced {
		env.tr = &serveTracer{rec: cfg.tr, inner: rt}
		rt = env.tr
	}
	env.client = &http.Client{Transport: rt, Timeout: time.Minute}
	warm := tr.Begin(root, "server", "warm cache (POST /sweeps)", "")
	err = env.warm()
	tr.End(warm)
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// warm submits the cached cells as one sweep and waits for it.
func (e *serveEnv) warm() error {
	var wl, cfgs []string
	for _, w := range workloads.All() {
		wl = append(wl, w.Name)
	}
	for _, c := range core.Configs() {
		cfgs = append(cfgs, c.Name)
	}
	body, _ := json.Marshal(server.SweepSpec{Workloads: wl, Configs: cfgs, Widths: cachedWidths})
	resp, err := e.client.Post(e.url+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sw server.Sweep
	err = json.NewDecoder(resp.Body).Decode(&sw)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("warm-up sweep: %s %v", resp.Status, err)
	}
	for {
		var doc struct {
			Done, Failed, Canceled int
			Complete               bool
		}
		if err := getJSON(e.client, e.url+"/sweeps/"+sw.ID, &doc); err != nil {
			return err
		}
		if doc.Complete {
			if doc.Done != len(sw.JobIDs) {
				return fmt.Errorf("warm-up sweep: %d of %d cells done", doc.Done, len(sw.JobIDs))
			}
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Drain(ctx) // every job is terminal by now; a forced drain only loses speed
	e.stop()
	e.transport.CloseIdleConnections()
}

// runJob submits one job and polls until the client sees a terminal state.
func (e *serveEnv) runJob(ctx context.Context, o *jobOutcome, start time.Time) {
	body, _ := json.Marshal(server.JobSpec{Workload: o.cell.Workload, Config: o.cell.Config, Width: o.cell.Width})
	o.sent = time.Now()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	var doc server.Job
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.refused = true
		return
	case resp.StatusCode != http.StatusAccepted || err != nil:
		o.err = fmt.Errorf("POST /jobs: %s %v", resp.Status, err)
		return
	}
	o.id = doc.ID
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, e.url+"/jobs/"+o.id, nil)
		resp, err := e.client.Do(req)
		if err != nil {
			o.err = err
			return
		}
		doc = server.Job{}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			o.err = fmt.Errorf("GET /jobs/%s: %s %v", o.id, resp.Status, err)
			return
		}
		if doc.State.Terminal() {
			break
		}
		time.Sleep(pollInterval)
	}
	o.latency = time.Since(start.Add(o.due))
	if doc.State != server.StateDone || doc.Result == nil {
		o.failed = true
		return
	}
	o.ok = true
	o.cycles, o.instr = doc.Result.Cycles, doc.Result.Instructions
}

// runOpenLoop sends jobs on their schedule from one generator goroutine,
// each job on its own goroutine, and waits for all of them.
func (e *serveEnv) runOpenLoop(jobs []plannedJob, rec *Recorder) (out []*jobOutcome, start time.Time) {
	out = make([]*jobOutcome, len(jobs))
	var wg sync.WaitGroup
	start = time.Now().Add(20 * time.Millisecond)
	for i := range jobs {
		o := &jobOutcome{plannedJob: jobs[i]}
		out[i] = o
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o.late = time.Since(due)
		ctx := context.Background()
		if rec != nil {
			o.rootSpan = rec.Record(0, rootLayer, "job", o.cell.key(), due, due, 1)
			ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{o.rootSpan, o.cell.key()})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runJob(ctx, o, start)
		}()
	}
	wg.Wait()
	return out, start
}

// checkJobs is the output check: every admitted job reached a terminal
// state and every done job carries its cell's reference cycles.
func checkJobs(jobs []*jobOutcome, refs map[string]int64) (failed int, err error) {
	for _, o := range jobs {
		switch {
		case o.refused || o.failed:
			failed++
		case o.err != nil:
			return failed, o.err
		case o.cycles != refs[o.cell.key()]:
			return failed, fmt.Errorf("job %s (%s): %d cycles, reference %d", o.id, o.cell.key(), o.cycles, refs[o.cell.key()])
		}
	}
	return failed, nil
}

// stepPasses is the capacity probe's rule: nothing refused, p99 under the
// limit, and nothing still unfinished p99LimitMS after the last arrival
// was due.
func stepPasses(jobs []*jobOutcome) bool {
	var lat []float64
	var lastDue time.Duration
	for _, o := range jobs {
		lat = append(lat, o.latencyMS())
		lastDue = max(lastDue, o.due)
	}
	deadline := lastDue + time.Duration(p99LimitMS*1e6)
	for _, o := range jobs {
		if !o.ok || o.due+o.latency > deadline {
			return false
		}
	}
	return quantile(lat, 0.99) <= p99LimitMS
}

// probeCapacity runs probeBisections fixed-length bisections, on a log
// scale, of the highest offered rate over cached cells that passes
// stepPasses, and returns the best. Interference from other tenants of
// the host only ever lowers the rate a step sustains, so the best
// bisection is the one it disturbed least.
func (e *serveEnv) probeCapacity(rng *rand.Rand, p *zipfPicker, stepSeconds float64, refs map[string]int64, res *result) (float64, error) {
	best := 0.0
	for b := 0; b < probeBisections; b++ {
		lo, hi := probeLo, probeHi
		var trail []string
		for i := 0; i < probeSteps; i++ {
			rate := math.Sqrt(lo * hi)
			n := max(1, int(rate*stepSeconds))
			jobs, _ := e.runOpenLoop(planSteady(rng, p, n, rate), nil)
			failed, err := checkJobs(jobs, refs)
			if err != nil {
				return 0, err
			}
			res.Attempted += len(jobs)
			res.Failed += failed
			pass := stepPasses(jobs)
			if pass {
				lo = rate
			} else {
				hi = rate
			}
			var lat []float64
			for _, o := range jobs {
				lat = append(lat, o.latencyMS())
			}
			trail = append(trail, fmt.Sprintf("%.0f/s p99 %.3gms %v", rate, quantile(lat, 0.99), pass))
			time.Sleep(50 * time.Millisecond)
		}
		res.note(fmt.Sprintf("capacity bisection %d", b+1), fmt.Sprintf("%.0f jobs/s: %s", lo, strings.Join(trail, "; ")))
		best = max(best, lo)
	}
	return best, nil
}

// serveMixed: an in-process ddserve at scale 10 with a durable store and
// two workers, driven by one open-loop Poisson client. See README.md.
func serveMixed(cfg *runConfig) (*result, error) {
	res := newResult()
	refs, err := loadServeRefs(cfg.Refs)
	if err != nil {
		return nil, err
	}
	var env *serveEnv
	var bs buildStats
	setups := 0
	d, err := medianSetup(setupRepeats, func(final bool) error {
		var tr *Recorder
		if final {
			tr = cfg.tr
		}
		if env != nil {
			env.close()
		}
		setups++
		bs = buildStats{}
		var err error
		env, err = startServe(cfg, tr, filepath.Join(cfg.Work, "store"+strconv.Itoa(setups)), &bs)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.E2E["setup_s"] = d
	bs.report(res, "workloads.Provider")

	rng := rand.New(rand.NewSource(cfg.Seed))
	picker := newZipfPicker(rng)
	// Untraced runs fill the window with serveSegments segments; the
	// traced run measures one untraced and one traced segment.
	perSeg := max(1, int(serveRate*cfg.Seconds/serveSegments))
	segments := serveSegments
	if cfg.Traced {
		segments = 2
	}
	var plans [][]plannedJob
	for seg := 0; seg < segments; seg++ {
		plans = append(plans, planSegment(rng, picker, seg, perSeg, serveRate))
	}
	mark := cfg.tr.Mark()
	var all []*jobOutcome
	var reps []repStats
	var traced []*jobOutcome
	var tracedStart time.Time
	var cells0 [4]int64
	for seg, plan := range plans {
		on := cfg.Traced && seg == len(plans)-1
		var rec *Recorder
		if on {
			rec = cfg.tr
			rec.Truncate(mark)
			env.store.setOn(true)
			cells0 = runnerCounts(env.srv.Metrics(), "plain")
		}
		var jobs []*jobOutcome
		var start time.Time
		st := measure(func() { jobs, start = env.runOpenLoop(plan, rec) })
		env.store.setOn(false)
		failed, err := checkJobs(jobs, refs)
		if err != nil {
			return nil, err
		}
		var last time.Time
		for _, o := range jobs {
			if o.ok && o.kind == kindFresh {
				st.Instructions += o.instr
			}
			last = maxTime(last, start.Add(o.due+o.latency))
		}
		st.Wall = last.Sub(start).Seconds()
		st.Ops, st.Failed, st.Traced = len(jobs), failed, on
		res.Attempted += st.Ops
		res.Failed += failed
		reps = append(reps, st)
		if on {
			traced, tracedStart = jobs, start
		} else {
			all = append(all, jobs...)
		}
	}
	repMetrics(reps, res.E2E, res)
	var lat []float64
	byKind := map[string][]float64{}
	for _, o := range all {
		lat = append(lat, o.latencyMS())
		byKind[o.kind] = append(byKind[o.kind], o.latencyMS())
	}
	opMetrics(res, "job", lat, 99)
	for _, k := range []string{kindCached, kindStored, kindFresh} {
		res.note(k+" jobs", fmt.Sprintf("%d, p50 %.4g ms", len(byKind[k]), median(byKind[k])))
	}
	if !cfg.Traced {
		return res, nil
	}
	tracingOverhead(reps, res)
	if err := env.tracedLayers(cfg, traced, tracedStart, cells0, res); err != nil {
		return nil, err
	}
	// The capacity probe runs in the traced run only: on a shared 2-vCPU
	// host its result moved 30% between runs of identical code, more than
	// any end-to-end bound allows.
	capRng := rand.New(rand.NewSource(cfg.Seed + 1))
	maxRate, err := env.probeCapacity(capRng, picker, cfg.Seconds/20, refs, res)
	if err != nil {
		return nil, err
	}
	res.layer("server.max_jobs_per_s", maxRate)
	res.note("server.max_jobs_per_s", fmt.Sprintf("best of %d bisections of %d steps in [%g, %g] jobs/s, p99 limit %g ms", probeBisections, probeSteps, probeLo, probeHi, p99LimitMS))
	return res, nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func (s *timedStore) setOn(v bool) {
	if s != nil {
		s.on.Store(v)
	}
}

// serverLayer maps the server's own job-trace span names to layers.
var serverLayer = map[string]string{
	"queued": "server", "run": "server",
	"cell": "experiments", "attempt": "experiments", "trace-gen": "vm",
	"store.get": "store", "store.put": "store",
	"simulate": "core", "execute": "cluster",
}

// tracedLayers fetches each traced job's span log from the public
// GET /jobs/{id}/trace endpoint, hangs it under the job's span, and
// writes serve-mixed's per-layer metrics.
func (e *serveEnv) tracedLayers(cfg *runConfig, jobs []*jobOutcome, start time.Time, cells0 [4]int64, res *result) error {
	rec := cfg.tr
	var queue, run, late, fresh, stored []float64
	cs := &coreStats{}
	for _, o := range jobs {
		late = append(late, o.late.Seconds()*1e3)
		switch o.kind {
		case kindFresh:
			fresh = append(fresh, o.latencyMS())
		case kindStored:
			stored = append(stored, o.latencyMS())
		}
		due := start.Add(o.due)
		rec.SetEnd(o.rootSpan, due.Add(o.latency))
		var doc metrics.TraceDoc
		if err := getJSON(e.client, e.url+"/jobs/"+o.id+"/trace", &doc); err != nil {
			return err
		}
		ids := map[int]int{}
		sort.Slice(doc.Spans, func(i, j int) bool { return doc.Spans[i].ID < doc.Spans[j].ID })
		var simSecs float64
		for _, sp := range doc.Spans {
			parent := o.rootSpan
			if p, ok := ids[sp.Parent]; ok {
				parent = p
			}
			layer, ok := serverLayer[sp.Name]
			if !ok {
				layer = "server"
			}
			s0 := o.sent.Add(time.Duration(sp.StartUS) * time.Microsecond)
			s1 := s0.Add(time.Duration(sp.DurUS) * time.Microsecond)
			ids[sp.ID] = rec.Record(parent, layer, "server "+sp.Name, o.cell.key(), s0, s1, 1)
			d := float64(sp.DurUS) / 1e3
			switch sp.Name {
			case "queued":
				queue = append(queue, d)
			case "run":
				run = append(run, d)
			case "simulate":
				simSecs += d / 1e3
			}
		}
		if o.kind == kindFresh {
			cs.add(cellTiming{o.cell.Config, o.cell.Width, o.instr, o.cycles, simSecs})
		}
	}
	cs.report(res, 0)
	cells := runnerCounts(e.srv.Metrics(), "plain")
	for i := range cells {
		cells[i] -= cells0[i]
	}
	experimentsLayer(res, cells)

	s := e.store
	sr := ratio{float64(s.hits), float64(s.gets), "store hits / store gets"}
	res.layer("store.gets", float64(s.gets))
	res.layer("store.hit_ratio", sr.Value())
	res.note("store.hit_ratio", sr.String())
	res.layer("store.get_ms.p50", median(s.getMS))
	res.layer("store.puts", float64(len(s.putMS)))
	res.layer("store.put_ms.p50", median(s.putMS))
	res.layer("store.put_ms.p90", quantile(s.putMS, 0.90))
	res.note("store.put_ms.p90", fmt.Sprintf("over %d puts", len(s.putMS)))

	t := e.tr
	res.layer("server.submits", float64(len(t.submits)))
	res.layer("server.shed", float64(e.srv.Shed()))
	res.layer("server.submit_ms.p50", median(t.submits))
	res.layer("server.poll_ms.p50", median(t.polls))
	pp := ratio{float64(len(t.polls)), float64(len(jobs)), "GET /jobs/{id} / jobs"}
	res.layer("server.polls_per_job", pp.Value())
	res.note("server.polls_per_job", pp.String())
	res.layer("server.queue_ms.p50", median(queue))
	res.layer("server.run_ms.p50", median(run))
	lp, lv := tailPct(late, 99)
	res.layer("server.generator_late_ms", lv)
	res.note("server.generator_late_ms", fmt.Sprintf("p%g of %d arrivals (p50 %.3g ms)", lp, len(late), median(late)))
	res.layer("server.fresh_job_p50_ms", median(fresh))
	res.layer("server.stored_job_p50_ms", median(stored))
	res.note("fresh/stored jobs in the traced segment", fmt.Sprintf("%d / %d", len(fresh), len(stored)))
	return nil
}
