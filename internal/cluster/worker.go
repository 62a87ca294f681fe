package cluster

// Worker is the execution half of the compute plane: a minimal HTTP API
// that accepts banks of cells (POST /cells), executes each bank over one
// open of its trace on a bounded local concurrency budget, and answers
// with per-cell outcomes. Cells name their trace's generator plus its
// content hash; the worker regenerates the trace deterministically
// (through the process-wide workloads memo) and verifies the regenerated
// hash before trusting it. A worker that cannot reproduce the trace
// answers a transient failure, and the coordinator moves the cells to a
// peer or runs them locally. Results cache in the existing durable store
// when one is attached, so a worker restarted mid-sweep resumes from disk
// exactly like a single-process run would.

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/watchdog"
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
	// MaxConcurrent bounds simultaneously executing banks across all
	// in-flight requests; <= 0 means GOMAXPROCS.
	MaxConcurrent int
	// SpoolDir, when non-empty, spools locally regenerated traces to disk
	// (workloads.ProviderOptions.SpoolDir) instead of materializing them.
	SpoolDir string
	// MaxTraceMem bounds the in-memory footprint of locally regenerated
	// traces (workloads.ProviderOptions.MaxMem); ignored when SpoolDir is
	// set.
	MaxTraceMem int64
}

// Worker executes cell banks. Create with NewWorker; mount its handlers
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
	w.batches = reg.Counter("cluster_worker_batches_total", "cell bank requests received")
	w.regens = reg.Counter("cluster_worker_trace_regens_total",
		"trace hashes this worker resolved for the first time (regenerated from the cell spec and hash-verified)")
	w.cellSeconds = reg.Histogram("cluster_worker_cell_seconds",
		"attributed seconds per banked cell (its back end plus a share of its bank's front end)", nil)
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

// HandleCells executes POST /cells: a bank of cells, answered positionally.
// Each cell is validated and served from the store when it can be; the
// rest run grouped by trace, each group as one core.Bank over one open of
// the trace, on one concurrency slot, under the request's per-cell budget.
func (w *Worker) HandleCells(rw http.ResponseWriter, r *http.Request) {
	var req bankRequest
	if err := readJSON(r, &req); err != nil {
		http.Error(rw, "cluster: bad bank: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Cells) == 0 || len(req.Cells) > maxBankCells {
		http.Error(rw, fmt.Sprintf("cluster: bank size %d out of range [1, %d]", len(req.Cells), maxBankCells),
			http.StatusBadRequest)
		return
	}
	w.batches.Inc()
	out := make([]CellOutcome, len(req.Cells))
	groups := map[string][]int{}
	for i, spec := range req.Cells {
		if o, ok := w.admit(spec); ok {
			out[i] = o
			continue
		}
		groups[spec.traceKey()] = append(groups[spec.traceKey()], i)
	}
	var wg sync.WaitGroup
	for _, at := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, o := range w.runBank(r.Context(), subset(req.Cells, at), req.Budget) {
				out[at[k]] = o
			}
		}()
	}
	wg.Wait()
	writeJSON(rw, http.StatusOK, bankResponse{Outcomes: out})
}

// fail counts n failed cells and returns their outcome.
func (w *Worker) fail(n int, kind failure.Kind, msg string) CellOutcome {
	w.cells.With("failed").Add(int64(n))
	return CellOutcome{Error: &failure.Error{Kind: kind, Message: msg}}
}

// admit validates one cell and serves it from the store when it can. It
// reports false for a cell left to simulate.
func (w *Worker) admit(spec CellSpec) (CellOutcome, bool) {
	h, err := spec.hash()
	if err != nil {
		return w.fail(1, failure.Invalid, err.Error()), true
	}
	if err := spec.checkGenerator(); err != nil {
		return w.fail(1, failure.Invalid, err.Error()), true
	}
	if spec.Width < 1 || spec.Width > 4096 {
		return w.fail(1, failure.Invalid, fmt.Sprintf("width %d out of range [1, 4096]", spec.Width)), true
	}
	if spec.Scale < 1 {
		return w.fail(1, failure.Invalid, fmt.Sprintf("scale %d < 1 (the coordinator normalizes scale)", spec.Scale)), true
	}
	if w.opt.Store == nil {
		return CellOutcome{}, false
	}
	res, err := w.opt.Store.Get(spec.storeKey(h))
	if err != nil {
		return CellOutcome{}, false
	}
	data, err := marshalResult(res)
	if err != nil {
		// Recompute: an unmarshalable store hit is a programming error
		// worth surviving, not serving.
		return CellOutcome{}, false
	}
	w.cells.With("store_hit").Inc()
	return CellOutcome{Result: data, FromStore: true}, true
}

// storeKey is the cell's durable identity under trace hash h — the exact
// key the coordinator's runner would use.
func (s CellSpec) storeKey(h uint64) store.Key {
	return store.Key{Trace: h, Config: s.Config.Fingerprint(), Width: s.Width,
		Scale: s.Scale, Window: s.Window, Checked: s.SelfCheck, Workload: s.Workload}
}

// runBank simulates admitted cells that share one trace as one bank: it
// regenerates the trace, takes a concurrency slot, and runs the bank.
// Every outcome carries the cell's attributed seconds, which
// cluster_worker_cell_seconds observes. A panic outside the bank — one
// poisoned request must never take the worker down — fails every cell,
// worded as the local watchdog words it.
func (w *Worker) runBank(ctx context.Context, specs []CellSpec, budget time.Duration) (out []CellOutcome) {
	all := func(o CellOutcome) []CellOutcome {
		out := make([]CellOutcome, len(specs))
		for i := range out {
			out[i] = o
		}
		return out
	}
	defer func() {
		if rec := recover(); rec != nil {
			out = all(w.fail(len(specs), failure.Panic, (&watchdog.PanicError{Value: rec}).Error()))
		}
	}()
	h, _ := specs[0].hash() // admitted
	prov, err := w.reproduce(ctx, specs[0], h)
	if err != nil {
		if ctx.Err() != nil {
			return all(w.fail(len(specs), failure.Canceled, err.Error()))
		}
		// Not permanent: a peer (or the coordinator's local fallback) may
		// still reproduce the trace.
		return all(w.fail(len(specs), failure.Sim, "cannot reproduce trace: "+err.Error()))
	}
	// The concurrency budget bounds simultaneous banks across every
	// in-flight request; a canceled request (hedge loser, caller gone)
	// stops waiting instead of holding a slot reservation.
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		return all(w.fail(len(specs), failure.Canceled, ctx.Err().Error()))
	}
	out = make([]CellOutcome, len(specs))
	for i, o := range runBank(ctx, prov, specs, budget) {
		w.cellSeconds.Observe(o.Seconds)
		if o.Err != nil {
			w.cells.With("failed").Inc()
			out[i] = CellOutcome{Error: failure.From(o.Err), Seconds: o.Seconds}
			continue
		}
		data, err := marshalResult(o.Result)
		if err != nil {
			out[i] = w.fail(1, failure.Sim, "encoding result: "+err.Error())
			continue
		}
		if w.opt.Store != nil {
			// Best-effort persistence, same contract as the runner's: a
			// failed write costs durability, never the result.
			_ = w.opt.Store.PutWithPerf(specs[i].storeKey(h), o.Result, nil)
		}
		w.cells.With("computed").Inc()
		out[i] = CellOutcome{Result: data, Seconds: o.Seconds}
	}
	return out
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
