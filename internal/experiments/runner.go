// Package experiments regenerates every table and figure of the paper's
// evaluation section (Tables 1-6, Figures 2-10) from the simulator. Each
// experiment returns typed data plus a rendered text table shaped like the
// paper's; the Registry maps experiment identifiers ("table1".."figure10")
// to runners for the ddsim command line and the benchmark harness.
//
// The pipeline degrades gracefully: a failed (workload, config, width) cell
// renders as "n/a" with a trailing error summary instead of aborting the
// whole experiment, and only context cancellation is fatal. Durability and
// supervision layer on top: WithStore persists every completed cell to disk
// so interrupted sweeps resume, Retries re-attempts transiently failing
// cells with backoff, and StallTimeout reaps cells whose progress
// heartbeats go silent. See docs/robustness.md for the full contract.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/retry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

// stallHeartbeatEvery is the per-instruction interval between progress
// heartbeats when stall supervision is armed: fine enough that even a slow
// cell beats many times per second, coarse enough to cost nothing.
const stallHeartbeatEvery = 1024

// Runner executes and caches simulation runs. Results are keyed by
// (workload, config fingerprint, width) at the Runner's scale, so
// experiments sharing runs (all the figures share the A-E sweep) pay for
// them once. Failures are cached alongside results: a failed cell fails
// fast on re-query instead of re-running, and its error degrades the
// reports that need it.
//
// Optional robustness layers, all off by default:
//
//   - WithStore persists completed cells to disk (content-addressed by
//     trace hash + config fingerprint), so a crashed or canceled sweep
//     resumes from what already finished;
//   - Retries re-attempts transiently failing cells with exponential
//     backoff; permanent failures (corrupt traces, invariant violations,
//     stalls) and cancellations are never retried;
//   - StallTimeout supervises each cell with a watchdog fed by the
//     scheduler's progress heartbeats: a cell that stops making progress is
//     reaped as stalled instead of wedging its worker forever.
type Runner struct {
	Scale  int   // workload scale; 0 = each workload's default
	Widths []int // issue widths; nil = the paper's {4, 8, 16, 32, 2048}

	// SelfCheck runs every simulation with scheduler invariant sweeps
	// (core.Params.SelfCheck); violations surface as cell failures.
	SelfCheck bool

	// Retries is the number of re-attempts after a transiently failing
	// cell computation (0 = fail on first error). Attempt counts appear in
	// the cell's error message when more than one attempt was made.
	Retries int
	// RetryDelay is the base backoff before the first re-attempt; 0 means
	// the retry package default (50ms, doubling, jittered).
	RetryDelay time.Duration
	// StallTimeout reaps a cell whose progress heartbeat goes silent for
	// this long; 0 disables stall supervision.
	StallTimeout time.Duration
	// CellTimeout bounds each cell's simulation wall-clock time, so one
	// straggler cell cannot consume an entire sweep's budget. A cell that
	// overruns fails with a *CellDeadlineError — permanent (never retried),
	// cached, and rendered as "n/a (deadline)" — while the rest of the
	// sweep proceeds. 0 disables the per-cell deadline. Unlike a deadline
	// on the Runner's context, a cell deadline is never treated as
	// cancellation of the whole sweep.
	CellTimeout time.Duration
	// OnCellDone, when non-nil, is called after every cell resolves
	// (computed or served from the store; canceled cells excluded) with
	// the total number of cells resolved so far. CLIs hang progress
	// reporting off it; tests use it to interrupt a sweep mid-flight.
	OnCellDone func(done int)

	ctx       context.Context
	store     ResultStore
	exec      Executor
	perf      *perf.Collector
	metrics   *RunnerMetrics
	workers   int
	traceOpts workloads.ProviderOptions
	cellsDone atomic.Int64
	computes  atomic.Int64

	mu    sync.Mutex
	cache map[runKey]*cacheEntry
}

type runKey struct {
	workload string
	config   string // core.Config.Fingerprint(): canonical and injective
	width    int
}

type cacheEntry struct {
	res *core.Result
	err error
}

// ResultStore is the durable-store surface the Runner consumes.
// *store.Store implements it; internal/server's circuit breaker wraps one
// to keep a failing disk from taking the serving layer down with it.
type ResultStore interface {
	Get(store.Key) (*core.Result, error)
	PutWithPerf(store.Key, *core.Result, *store.PerfInfo) error
	Stats() store.Stats
}

// Executor computes one sweep cell. It is the remote-execution seam: the
// Runner keeps its memory cache, durable store, taxonomy retry, and report
// rendering, and only the "simulate" step is delegated — locally by
// default, or across a worker cluster when internal/cluster's Coordinator
// is plugged in (it satisfies this interface without either package
// importing the other). Scale is always >= 1 (the Runner normalizes its 0
// = workload-default convention before the call). Implementations must be
// deterministic in the result: the sweep report is byte-compared across
// executors.
type Executor interface {
	ExecuteCell(ctx context.Context, w *workloads.Workload, cfg core.Config, width, scale int, selfCheck bool) (*core.Result, error)
}

// ErrCellDeadline matches (via errors.Is) cell failures caused by the
// Runner's per-cell deadline (CellTimeout).
var ErrCellDeadline = errors.New("experiments: cell deadline exceeded")

// CellDeadlineError reports a cell reaped by the per-cell deadline. It
// deliberately does NOT wrap context.DeadlineExceeded: a cell overrunning
// its budget is one degraded cell ("n/a (deadline)"), never a cancellation
// of the whole sweep.
type CellDeadlineError struct {
	Timeout time.Duration // the CellTimeout that was exceeded
}

// Error implements error.
func (e *CellDeadlineError) Error() string {
	return fmt.Sprintf("experiments: cell deadline (%v) exceeded", e.Timeout)
}

// Is matches the ErrCellDeadline sentinel.
func (e *CellDeadlineError) Is(target error) bool { return target == ErrCellDeadline }

// Permanent marks deadline failures as never worth retrying: the pipeline
// is deterministic, so the same cell overruns the same budget again.
func (e *CellDeadlineError) Permanent() bool { return true }

// NewRunner creates a Runner at the given scale (0 = workload defaults).
func NewRunner(scale int) *Runner {
	return &Runner{Scale: scale, cache: make(map[runKey]*cacheEntry)}
}

// WithStore opens (creating if needed) a durable result store at dir and
// layers it under the in-memory cache: cells already on disk are served
// without simulation, and every newly computed cell is persisted the moment
// it completes. It returns the Runner for chaining.
func (r *Runner) WithStore(dir string) (*Runner, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return r.WithStoreHandle(st), nil
}

// WithStoreHandle attaches an already-open store (or any ResultStore
// wrapper, such as internal/server's circuit breaker).
func (r *Runner) WithStoreHandle(st ResultStore) *Runner {
	r.store = st
	return r
}

// WithTraceSpool routes every workload trace through an on-disk spool
// under dir (see workloads.ProviderOptions.SpoolDir): traces are generated
// once, streamed to disk with their content hash folded inline, and each
// simulation re-reads the file — memory stays O(buffer) no matter the
// scale. It returns the Runner for chaining.
func (r *Runner) WithTraceSpool(dir string) *Runner {
	r.traceOpts.SpoolDir = dir
	return r
}

// WithMaxTraceMem bounds the in-memory trace footprint to the given byte
// budget (see workloads.ProviderOptions.MaxMem): a trace that fits stays
// buffered, one that does not is served by deterministic regeneration.
// Ignored when a spool directory is set. It returns the Runner for
// chaining.
func (r *Runner) WithMaxTraceMem(bytes int64) *Runner {
	r.traceOpts.MaxMem = bytes
	return r
}

// WithExecutor delegates cell computation to exec (nil restores the local
// simulator). Store lookups, retry, stall-free deadline accounting, and
// persistence stay Runner-side. It returns the Runner for chaining.
func (r *Runner) WithExecutor(exec Executor) *Runner {
	r.exec = exec
	return r
}

// WithPerf attaches a performance collector: every cell the Runner
// actually computes (store hits and cache hits excluded — they measure the
// disk, not the simulator) records its simulation time and instruction
// count. It returns the Runner for chaining.
func (r *Runner) WithPerf(c *perf.Collector) *Runner {
	r.perf = c
	return r
}

// RunnerMetrics is the instrumentation handle bundle one Runner records
// into: per-cell simulation durations, resolution outcomes (memory cache
// hit / store hit / computed / failed), and retry counts. Two runners
// serving different self-check modes share the underlying registry
// families, distinguished by the mode label.
type RunnerMetrics struct {
	cellSeconds *metrics.Histogram
	cacheHits   *metrics.Counter
	storeHits   *metrics.Counter
	computed    *metrics.Counter
	failed      *metrics.Counter
	retries     *metrics.Counter
}

// NewRunnerMetrics registers (or fetches) the runner metric families in
// reg and returns the handles for one mode ("plain" / "checked").
func NewRunnerMetrics(reg *metrics.Registry, mode string) *RunnerMetrics {
	cells := reg.CounterVec("runner_cells_total",
		"cell resolutions by outcome (cache_hit, store_hit, computed, failed)", "mode", "outcome")
	return &RunnerMetrics{
		cellSeconds: reg.HistogramVec("runner_cell_seconds",
			"per-cell simulation wall time (computed cells only)", nil, "mode").With(mode),
		cacheHits: cells.With(mode, "cache_hit"),
		storeHits: cells.With(mode, "store_hit"),
		computed:  cells.With(mode, "computed"),
		failed:    cells.With(mode, "failed"),
		retries: reg.CounterVec("runner_retries_total",
			"cell re-attempts granted after transient failures", "mode").With(mode),
	}
}

// WithMetrics attaches instrumentation handles (see NewRunnerMetrics).
// It returns the Runner for chaining.
func (r *Runner) WithMetrics(m *RunnerMetrics) *Runner {
	r.metrics = m
	return r
}

// WithWorkers sets the Prefetch worker-pool size (0 or negative restores
// the GOMAXPROCS default). It returns the Runner for chaining.
func (r *Runner) WithWorkers(n int) *Runner {
	r.workers = n
	return r
}

// StoreStats returns the attached store's counters (zero when no store).
func (r *Runner) StoreStats() store.Stats {
	if r.store == nil {
		return store.Stats{}
	}
	return r.store.Stats()
}

// ComputeCalls reports how many cell computations this Runner actually ran
// (store hits and in-memory cache hits excluded; a retried cell counts
// once per attempt that reached the simulator).
func (r *Runner) ComputeCalls() int64 { return r.computes.Load() }

// WithContext sets the context that bounds every simulation this Runner
// performs; cancellation aborts in-flight runs and fails subsequent ones.
// It returns the Runner for chaining.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r.ctx = ctx
	return r
}

// Context returns the Runner's context (Background if none was set).
func (r *Runner) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

func (r *Runner) widths() []int {
	if r.Widths != nil {
		return r.Widths
	}
	return core.Widths
}

// canceled reports whether err stems from context cancellation or a
// deadline — the only error class that aborts a whole experiment rather
// than degrading one cell.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Result returns the simulation result for one (workload, config, width),
// computing and caching it on first use. Errors other than cancellation are
// cached too, so a broken cell fails fast everywhere it is needed.
func (r *Runner) Result(w *workloads.Workload, cfg core.Config, width int) (*core.Result, error) {
	return r.ResultCtx(r.Context(), w, cfg, width)
}

// ResultCtx is Result bounded by a per-call context instead of the
// Runner-wide one: a long-running service gives each job its own deadline
// while sharing one Runner (and its caches) across jobs. Cancellation and
// deadline expiry of ctx are never cached — a later call with a live
// context can still succeed.
func (r *Runner) ResultCtx(ctx context.Context, w *workloads.Workload, cfg core.Config, width int) (*core.Result, error) {
	key := runKey{w.Name, cfg.Fingerprint(), width}
	ctx, span := metrics.StartSpan(ctx, "cell")
	if span != nil {
		span.Annotate("workload", w.Name)
		span.Annotate("config", cfg.Name)
		span.Annotate("width", strconv.Itoa(width))
		defer span.End()
	}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		span.Annotate("outcome", "cache_hit")
		if r.metrics != nil {
			r.metrics.cacheHits.Inc()
		}
		return e.res, e.err
	}
	r.mu.Unlock()

	res, attempts, err := r.compute(ctx, w, cfg, width)
	if r.metrics != nil && attempts > 1 {
		r.metrics.retries.Add(int64(attempts - 1))
	}
	if canceled(err) {
		// A canceled run says nothing about the cell itself; leave the
		// cache empty so a later run with a live context can succeed.
		span.Annotate("outcome", "canceled")
		return nil, err
	}
	if err != nil {
		span.Annotate("outcome", "failed")
		if r.metrics != nil {
			r.metrics.failed.Inc()
		}
		err = fmt.Errorf("experiments: %s/config %s/width %d: %w", w.Name, cfg.Name, width, err)
		if attempts > 1 {
			err = fmt.Errorf("%w (%d attempts)", err, attempts)
		}
	}

	r.mu.Lock()
	r.cache[key] = &cacheEntry{res: res, err: err}
	r.mu.Unlock()
	if r.OnCellDone != nil {
		r.OnCellDone(int(r.cellsDone.Add(1)))
	}
	return res, err
}

// compute resolves one cell: store lookup first (when a store is attached),
// then simulation under retry and stall supervision. It reports how many
// attempts the retry loop made so failures can carry their attempt count.
func (r *Runner) compute(ctx context.Context, w *workloads.Workload, cfg core.Config, width int) (res *core.Result, attempts int, err error) {
	policy := retry.Policy{MaxAttempts: r.Retries + 1, BaseDelay: r.RetryDelay}
	attempts, err = retry.Do(ctx, policy, func(attempt int) error {
		res = nil
		actx, aspan := metrics.StartSpan(ctx, "attempt")
		if aspan != nil {
			aspan.Annotate("n", strconv.Itoa(attempt))
			defer aspan.End()
		}
		if faultinject.Enabled() {
			if ferr := faultinject.Check(faultinject.PointExperiment); ferr != nil {
				return ferr
			}
		}
		_, tspan := metrics.StartSpan(actx, "trace-gen")
		prov, terr := w.Provider(actx, r.Scale, r.traceOpts)
		tspan.End()
		if terr != nil {
			return terr
		}
		var key store.Key
		if r.store != nil {
			kerr := error(nil)
			key, kerr = r.storeKey(w, cfg, width, prov)
			if kerr != nil {
				return kerr
			}
			_, gspan := metrics.StartSpan(actx, "store.get")
			got, gerr := r.store.Get(key)
			gspan.End()
			if gerr == nil {
				aspan.Annotate("outcome", "store_hit")
				if r.metrics != nil {
					r.metrics.storeHits.Inc()
				}
				res = got
				return nil
			}
			// Any store miss — absent, corrupt, version-mismatched —
			// falls through to recomputation; the store never vetoes.
		}
		r.computes.Add(1)
		timer := perf.Start()
		runCtx, cancelCell := actx, context.CancelFunc(func() {})
		if r.CellTimeout > 0 {
			runCtx, cancelCell = context.WithTimeout(actx, r.CellTimeout)
		}
		var got *core.Result
		var rerr error
		if r.exec != nil {
			// Delegated execution (e.g. a worker cluster). The cell
			// deadline still applies; stall supervision does not — progress
			// heartbeats don't cross the wire, and the executor owns its
			// own straggler handling (per-batch deadlines, hedging).
			runCtx, sspan := metrics.StartSpan(runCtx, "execute")
			got, rerr = r.exec.ExecuteCell(runCtx, w, cfg, width, r.scaleFor(w), r.SelfCheck)
			sspan.End()
		} else {
			runCtx, sspan := metrics.StartSpan(runCtx, "simulate")
			got, rerr = watchdog.Run(runCtx, r.StallTimeout, func(wctx context.Context, beat func()) (*core.Result, error) {
				p := core.Params{Width: width, SelfCheck: r.SelfCheck}
				if r.StallTimeout > 0 {
					p.Progress = func(core.Progress) { beat() }
					p.ProgressEvery = stallHeartbeatEvery
				}
				// A fresh open per attempt: providers replay from the start
				// (re-reading a spool, re-running the VM), so a retry never
				// resumes a half-consumed stream. Closing releases whatever
				// the open holds (a file, a generation goroutine) even when
				// the simulation aborts mid-stream.
				src, oerr := prov.Open()
				if oerr != nil {
					return nil, oerr
				}
				defer trace.CloseSource(src)
				return core.RunChecked(wctx, src, cfg, p)
			})
			sspan.End()
		}
		cancelCell()
		if rerr != nil {
			// A deadline that fired on the *cell's* derived context while
			// the sweep's own context is still live is a cell failure, not
			// a cancellation: convert it so it degrades one cell, caches,
			// and is never retried.
			if r.CellTimeout > 0 && ctx.Err() == nil && errors.Is(rerr, context.DeadlineExceeded) {
				return &CellDeadlineError{Timeout: r.CellTimeout}
			}
			return rerr
		}
		res = got
		cell := perf.Cell{Workload: w.Name, Config: cfg.Name, Width: width,
			Instructions: got.Instructions, Seconds: timer.Seconds()}
		aspan.Annotate("outcome", "computed")
		if r.metrics != nil {
			r.metrics.computed.Inc()
			r.metrics.cellSeconds.Observe(cell.Seconds)
		}
		if r.perf != nil {
			r.perf.Record(cell)
		}
		if r.store != nil {
			// Best-effort persistence: a failed write costs durability,
			// never the result. The store counts it in Stats.WriteErrors.
			_, pspan := metrics.StartSpan(actx, "store.put")
			_ = r.store.PutWithPerf(key, got,
				&store.PerfInfo{Seconds: cell.Seconds, MInstrPerSec: cell.MInstrPerSec()})
			pspan.End()
		}
		return nil
	})
	return res, attempts, err
}

// scaleFor normalizes the Runner's 0 = workload-default scale convention.
func (r *Runner) scaleFor(w *workloads.Workload) int {
	if r.Scale <= 0 {
		return w.DefaultScale
	}
	return r.Scale
}

// storeKey builds the durable identity of one cell: the trace *content*
// hash (not its name; providers memoize it), the injective config
// fingerprint, and the run shape. Workload name and scale ride along for
// human-readable filenames.
func (r *Runner) storeKey(w *workloads.Workload, cfg core.Config, width int, prov trace.Provider) (store.Key, error) {
	h, _, err := prov.ContentHash()
	if err != nil {
		return store.Key{}, err
	}
	return store.Key{
		Trace:    h,
		Config:   cfg.Fingerprint(),
		Width:    width,
		Scale:    r.scaleFor(w),
		Checked:  r.SelfCheck,
		Workload: w.Name,
	}, nil
}

// Prefetch computes all (workload, config, width) results for the given
// sets on a fixed worker pool (WithWorkers; GOMAXPROCS goroutines by
// default), and returns the errors.Join of every failed cell (nil when all
// succeeded). Cancellation drains the remaining jobs without starting them.
func (r *Runner) Prefetch(set []*workloads.Workload, cfgs []core.Config, widths []int) error {
	type job struct {
		w     *workloads.Workload
		cfg   core.Config
		width int
	}
	ctx := r.Context()
	var errs []error
	var jobs []job
	for _, w := range set {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			return errors.Join(errs...)
		}
		// Resolve trace providers serially first: generation is memoized
		// and must not race heap-heavy VM runs against each other. A
		// workload whose trace fails contributes one error, not one per
		// (config, width) cell.
		if _, err := w.Provider(ctx, r.Scale, r.traceOpts); err != nil {
			errs = append(errs, fmt.Errorf("experiments: tracing %s: %w", w.Name, err))
			continue
		}
		for _, cfg := range cfgs {
			for _, width := range widths {
				jobs = append(jobs, job{w, cfg, width})
			}
		}
	}

	workers := r.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		return errors.Join(errs...)
	}
	jobCh := make(chan job)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var es []error
			for j := range jobCh {
				if ctx.Err() != nil {
					continue // drain without starting new runs
				}
				if _, err := r.Result(j.w, j.cfg, j.width); err != nil {
					es = append(es, err)
				}
			}
			errCh <- errors.Join(es...)
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Report is one experiment's rendered output. CSV, when non-empty, holds
// the same data in comma-separated form for plotting pipelines
// (ddsim -csv). Errs lists the cell failures behind any "n/a" entries: a
// report with a non-empty Errs is degraded but still useful.
type Report struct {
	ID    string
	Title string
	Text  string
	CSV   string
	Errs  []error
}

// Degraded reports whether any cell of the report failed.
func (rep *Report) Degraded() bool { return len(rep.Errs) > 0 }

// Registry maps experiment identifiers to their runners, in the paper's
// order.
func Registry() []RegistryEntry {
	return []RegistryEntry{
		{"table1", "Benchmark characteristics", func(r *Runner) (*Report, error) { return Table1(r) }},
		{"table2", "Benchmark branch characteristics", func(r *Runner) (*Report, error) { return Table2(r) }},
		{"figure2", "IPC for the different configurations and issue widths", func(r *Runner) (*Report, error) {
			return FigureIPC(r, "figure2", workloads.All())
		}},
		{"figure3", "Speedup over the superscalar base machine", func(r *Runner) (*Report, error) {
			return FigureSpeedup(r, "figure3", workloads.All())
		}},
		{"figure4", "IPC for the pointer-chasing benchmarks", func(r *Runner) (*Report, error) {
			return FigureIPC(r, "figure4", workloads.PointerChasingSet())
		}},
		{"figure5", "Speedup for the pointer-chasing benchmarks", func(r *Runner) (*Report, error) {
			return FigureSpeedup(r, "figure5", workloads.PointerChasingSet())
		}},
		{"figure6", "IPC for the non pointer-chasing benchmarks", func(r *Runner) (*Report, error) {
			return FigureIPC(r, "figure6", workloads.NonPointerChasingSet())
		}},
		{"figure7", "Speedup for the non pointer-chasing benchmarks", func(r *Runner) (*Report, error) {
			return FigureSpeedup(r, "figure7", workloads.NonPointerChasingSet())
		}},
		{"table3", "Load-speculation behavior, pointer-chasing benchmarks (config D)", func(r *Runner) (*Report, error) {
			return LoadTable(r, "table3", workloads.PointerChasingSet())
		}},
		{"table4", "Load-speculation behavior, non pointer-chasing benchmarks (config D)", func(r *Runner) (*Report, error) {
			return LoadTable(r, "table4", workloads.NonPointerChasingSet())
		}},
		{"figure8", "Instructions d-collapsed (config D)", func(r *Runner) (*Report, error) { return Figure8(r) }},
		{"figure9", "Contribution of the three collapsing mechanisms (config D)", func(r *Runner) (*Report, error) { return Figure9(r) }},
		{"figure10", "Distance between d-collapsed instructions (config D)", func(r *Runner) (*Report, error) { return Figure10(r) }},
		{"table5", "Most frequently collapsed 3-1 (pair) dependences", func(r *Runner) (*Report, error) { return Table5(r) }},
		{"table6", "Most frequently collapsed 4-1 (triple) dependences", func(r *Runner) (*Report, error) { return Table6(r) }},
	}
}

// RegistryEntry is one experiment in the registry.
type RegistryEntry struct {
	ID    string
	Title string
	Run   func(*Runner) (*Report, error)
}

// ByID finds a registry entry.
func ByID(id string) (RegistryEntry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return RegistryEntry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
