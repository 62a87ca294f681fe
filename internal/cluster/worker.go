package cluster

// Worker is the execution half of the compute plane: a minimal HTTP API
// that accepts batches of cells (POST /cells), executes them on a bounded
// local concurrency budget, and answers with per-cell outcomes. Cells name
// their trace's generator plus its content hash; the worker regenerates
// the trace deterministically (through the process-wide workloads memo)
// and verifies the regenerated hash before trusting it. A worker that
// cannot reproduce the trace answers a transient failure, and the
// coordinator moves the cell to a peer or runs it locally. Results cache
// in the existing durable store when one is attached, so a worker
// restarted mid-sweep resumes from disk exactly like a single-process run
// would.

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ResultStore is the durable-store surface the worker consumes — the same
// shape the experiments runner uses, so *store.Store (or the serving
// layer's circuit breaker) plugs into both sides of the wire.
type ResultStore interface {
	Get(store.Key) (*core.Result, error)
	PutWithPerf(store.Key, *core.Result, *store.PerfInfo) error
	Stats() store.Stats
}

// WorkerOptions configures a Worker. The zero value works: no store,
// GOMAXPROCS-bounded concurrency, regenerated traces held in memory.
type WorkerOptions struct {
	// Store, when non-nil, serves cells already on disk without
	// simulation and persists every computed cell.
	Store ResultStore
	// MaxConcurrent bounds simultaneously executing cells across all
	// in-flight batches; <= 0 means GOMAXPROCS.
	MaxConcurrent int
	// SpoolDir, when non-empty, spools locally regenerated traces to disk
	// (workloads.ProviderOptions.SpoolDir) instead of materializing them.
	SpoolDir string
	// MaxTraceMem bounds the in-memory footprint of locally regenerated
	// traces (workloads.ProviderOptions.MaxMem); ignored when SpoolDir is
	// set.
	MaxTraceMem int64
}

// Worker executes cell batches. Create with NewWorker; mount its handlers
// via Handler (standalone) or through internal/server's Options.Worker.
type Worker struct {
	opt WorkerOptions
	sem chan struct{}

	mu   sync.Mutex
	seen map[uint64]bool // trace hashes resolved so far, for the regens count

	cells       *metrics.CounterVec // cluster_worker_cells_total{outcome}
	batches     *metrics.Counter
	regens      *metrics.Counter
	cellSeconds *metrics.Histogram
}

// NewWorker builds a Worker.
func NewWorker(opt WorkerOptions) *Worker {
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	w := &Worker{
		opt:  opt,
		sem:  make(chan struct{}, opt.MaxConcurrent),
		seen: make(map[uint64]bool),
	}
	w.register(metrics.NewRegistry())
	return w
}

// register binds the worker's metric handles to reg. Called with a private
// registry at construction; Instrument rebinds onto a shared one.
func (w *Worker) register(reg *metrics.Registry) {
	w.cells = reg.CounterVec("cluster_worker_cells_total",
		"cells answered by this worker, by outcome (computed, store_hit, failed)", "outcome")
	w.batches = reg.Counter("cluster_worker_batches_total", "cell batches received")
	w.regens = reg.Counter("cluster_worker_trace_regens_total",
		"trace hashes this worker resolved for the first time (regenerated from the cell spec and hash-verified)")
	w.cellSeconds = reg.Histogram("cluster_worker_cell_seconds",
		"per-cell execution wall time (computed cells only)", nil)
}

// Instrument re-registers the worker's families on a shared registry (the
// serving process's /metrics page). Call before serving traffic.
func (w *Worker) Instrument(reg *metrics.Registry) { w.register(reg) }

// Handler returns a standalone mux carrying the worker endpoints — used by
// tests and harnesses; ddserve mounts the same handlers through
// internal/server so they share its instrumentation middleware.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cells", w.HandleCells)
	mux.HandleFunc("GET /workerz", w.HandleStatus)
	return mux
}

// reproduce regenerates the cell's trace from its generator spec, under
// the worker's own trace-plane options (spool, memory budget). The
// regenerated content hash must equal the hash the spec names: the
// coordinator's hash is the ground truth, and a divergent local build
// (version skew, an unknown generator) must never answer for it. The
// first resolution of each hash counts as a regeneration.
func (w *Worker) reproduce(ctx context.Context, spec CellSpec, want uint64) (trace.Provider, error) {
	prov, err := spec.provider(ctx, workloads.ProviderOptions{
		SpoolDir: w.opt.SpoolDir, MaxMem: w.opt.MaxTraceMem})
	if err != nil {
		return nil, err
	}
	got, _, err := prov.ContentHash()
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("cluster: regenerated trace hashes to %s, spec names %s", hashString(got), spec.TraceHash)
	}
	w.mu.Lock()
	if !w.seen[want] {
		w.seen[want] = true
		w.regens.Inc()
	}
	w.mu.Unlock()
	return prov, nil
}

// HandleCells executes POST /cells: a batch of cells, answered positionally.
func (w *Worker) HandleCells(rw http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := readJSON(r, &req); err != nil {
		http.Error(rw, "cluster: bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Cells) == 0 || len(req.Cells) > maxBatchCells {
		http.Error(rw, fmt.Sprintf("cluster: batch size %d out of range [1, %d]", len(req.Cells), maxBatchCells),
			http.StatusBadRequest)
		return
	}
	w.batches.Inc()
	out := make([]CellOutcome, len(req.Cells))
	var wg sync.WaitGroup
	for i := range req.Cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = w.executeCell(r, req.Cells[i])
		}(i)
	}
	wg.Wait()
	writeJSON(rw, http.StatusOK, batchResponse{Outcomes: out})
}

// executeCell resolves one cell: validation, store lookup, trace
// regeneration, then simulation on the concurrency budget. Panics are
// isolated into KindPanic outcomes — one poisoned cell must never take the
// worker down.
func (w *Worker) executeCell(r *http.Request, spec CellSpec) (out CellOutcome) {
	defer func() {
		if rec := recover(); rec != nil {
			w.cells.With("failed").Inc()
			out = CellOutcome{Error: &RemoteError{Kind: KindPanic,
				Message: fmt.Sprintf("cell panicked worker-side: %v", rec)}}
		}
	}()
	fail := func(kind, msg string) CellOutcome {
		w.cells.With("failed").Inc()
		return CellOutcome{Error: &RemoteError{Kind: kind, Message: msg}}
	}
	h, err := spec.hash()
	if err != nil {
		return fail(KindInvalid, err.Error())
	}
	if err := spec.checkGenerator(); err != nil {
		return fail(KindInvalid, err.Error())
	}
	if spec.Width < 1 || spec.Width > 4096 {
		return fail(KindInvalid, fmt.Sprintf("width %d out of range [1, 4096]", spec.Width))
	}
	if spec.Scale < 1 {
		return fail(KindInvalid, fmt.Sprintf("scale %d < 1 (the coordinator normalizes scale)", spec.Scale))
	}
	key := store.Key{Trace: h, Config: spec.Config.Fingerprint(), Width: spec.Width,
		Scale: spec.Scale, Window: spec.Window, Checked: spec.SelfCheck, Workload: spec.Workload}
	if w.opt.Store != nil {
		if res, err := w.opt.Store.Get(key); err == nil {
			data, merr := marshalResult(res)
			if merr == nil {
				w.cells.With("store_hit").Inc()
				return CellOutcome{Result: data, FromStore: true}
			}
			// Fall through and recompute: an unmarshalable store hit is a
			// programming error worth surviving, not serving.
		}
	}
	ctx := r.Context()
	prov, err := w.reproduce(ctx, spec, h)
	if err != nil {
		if ctx.Err() != nil {
			return fail(KindCanceled, err.Error())
		}
		// Not permanent: a peer (or the coordinator's local fallback) may
		// still reproduce the trace.
		return fail(KindSim, "cannot reproduce trace: "+err.Error())
	}

	// The concurrency budget bounds simultaneous simulations across every
	// in-flight batch; a canceled request (hedge loser, coordinator gone)
	// stops waiting instead of holding a slot reservation.
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		return fail(KindCanceled, ctx.Err().Error())
	}
	src, err := prov.Open()
	if err != nil {
		return fail(KindSim, "opening trace: "+err.Error())
	}
	defer trace.CloseSource(src)
	start := time.Now()
	res, err := core.RunChecked(ctx, src, spec.Config,
		core.Params{Width: spec.Width, WindowSize: spec.Window, SelfCheck: spec.SelfCheck})
	if err != nil {
		re := classifyRemote(err)
		w.cells.With("failed").Inc()
		return CellOutcome{Error: re}
	}
	w.cellSeconds.Observe(time.Since(start).Seconds())
	data, err := marshalResult(res)
	if err != nil {
		return fail(KindSim, "encoding result: "+err.Error())
	}
	if w.opt.Store != nil {
		// Best-effort persistence, same contract as the runner's: a failed
		// write costs durability, never the result.
		_ = w.opt.Store.PutWithPerf(key, res, nil)
	}
	w.cells.With("computed").Inc()
	return CellOutcome{Result: data}
}

// WorkerStatus is the GET /workerz document.
type WorkerStatus struct {
	Worker      bool         `json:"worker"`       // always true; presence is the health probe
	TraceRegens int64        `json:"trace_regens"` // trace hashes resolved for the first time
	Cells       int64        `json:"cells"`        // cells answered (all outcomes)
	Store       *store.Stats `json:"store,omitempty"`
}

// HandleStatus serves GET /workerz — the coordinator's health probe.
func (w *Worker) HandleStatus(rw http.ResponseWriter, r *http.Request) {
	st := WorkerStatus{Worker: true, TraceRegens: w.regens.Value()}
	for _, o := range []string{"computed", "store_hit", "failed"} {
		st.Cells += w.cells.With(o).Value()
	}
	if w.opt.Store != nil {
		s := w.opt.Store.Stats()
		st.Store = &s
	}
	writeJSON(rw, http.StatusOK, st)
}
