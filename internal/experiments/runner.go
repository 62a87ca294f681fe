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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
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
//     backoff; a failure of a permanent kind (every kind but sim, see
//     internal/failure) is never retried;
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
	// (computed, served from the store, or failed; canceled cells
	// excluded) with the numbers of cells resolved so far and of those
	// that failed. CLIs hang progress reporting off it; tests use it to
	// interrupt a sweep mid-flight.
	OnCellDone func(done, failed int)

	ctx       context.Context
	store     ResultStore
	exec      Executor
	perf      *perf.Collector
	metrics   *RunnerMetrics
	workers   int
	traceOpts workloads.ProviderOptions
	computes  atomic.Int64

	mu     sync.Mutex
	cache  map[runKey]*cacheEntry
	done   int // cells resolved (OnCellDone), of which
	failed int // failed
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
// executors. An Executor that is also a BankExecutor gets a sub-bank in
// one call; any other gets its cells one by one.
type Executor interface {
	ExecuteCell(ctx context.Context, w *workloads.Workload, cfg core.Config, width, scale int, selfCheck bool) (*core.Result, error)
}

// BankExecutor is an Executor that runs several cells of one workload as
// one bank, as core.NewBank(cells, budget) followed by Bank.Run runs them
// locally: budget bounds each cell's attributed time, and the call
// returns one outcome per cell, in order, whose Seconds sum to the call's
// time. The Runner sets only Width, WindowSize and SelfCheck in a cell's
// Params.
type BankExecutor interface {
	ExecuteBank(ctx context.Context, w *workloads.Workload, scale int, cells []core.Cell, budget time.Duration) []core.Outcome
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

// FailureKind declares the deadline kind, which is permanent: the pipeline
// is deterministic, so the same cell overruns the same budget again.
func (e *CellDeadlineError) FailureKind() failure.Kind { return failure.Deadline }

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
			"attributed simulation seconds per computed cell (its back end plus a share of its bank's front end)", nil, "mode").With(mode),
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

// WithWorkers sets the Prefetch worker-pool size, which is also the most
// sub-banks a workload's cells are split into (0 or negative restores the
// GOMAXPROCS default). It returns the Runner for chaining.
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
	ctx, span := metrics.StartSpan(ctx, "cell")
	if span != nil {
		span.Annotate("workload", w.Name)
		span.Annotate("config", cfg.Name)
		span.Annotate("width", strconv.Itoa(width))
		defer span.End()
	}
	if e, ok := r.cached(w, cfg, width); ok {
		span.Annotate("outcome", "cache_hit")
		return e.res, e.err
	}
	c := &cell{cfg: cfg, width: width}
	if e, ok := r.lookup(ctx, w, c); ok {
		span.Annotate("outcome", "store_hit")
		return e.res, e.err
	}
	e := r.compute(ctx, w, []*cell{c})[0]
	switch {
	case failure.Ended(e.err):
		span.Annotate("outcome", "canceled")
	case e.err != nil:
		span.Annotate("outcome", "failed")
	default:
		span.Annotate("outcome", "computed")
	}
	return e.res, e.err
}

// cell is one (configuration, width) of a workload that missed the memory
// cache.
type cell struct {
	cfg   core.Config
	width int
	key   store.Key // the cell's store identity, once computed
	keyed bool
}

// cached returns a cell's memory-cache entry, counting the hit.
func (r *Runner) cached(w *workloads.Workload, cfg core.Config, width int) (*cacheEntry, bool) {
	r.mu.Lock()
	e, ok := r.cache[runKey{w.Name, cfg.Fingerprint(), width}]
	r.mu.Unlock()
	if ok && r.metrics != nil {
		r.metrics.cacheHits.Inc()
	}
	return e, ok
}

// lookup consults the store for c, settling it on a hit. Any miss —
// no store, an unresolvable trace, an absent, corrupt or
// version-mismatched entry — leaves the cell to compute: the store never
// vetoes.
func (r *Runner) lookup(ctx context.Context, w *workloads.Workload, c *cell) (cacheEntry, bool) {
	if r.store == nil {
		return cacheEntry{}, false
	}
	prov, err := w.Provider(ctx, r.Scale, r.traceOpts)
	if err != nil {
		return cacheEntry{}, false
	}
	if c.key, err = r.storeKey(w, c.cfg, c.width, prov); err != nil {
		return cacheEntry{}, false
	}
	c.keyed = true
	_, gspan := metrics.StartSpan(ctx, "store.get")
	got, err := r.store.Get(c.key)
	gspan.End()
	if err != nil {
		return cacheEntry{}, false
	}
	if r.metrics != nil {
		r.metrics.storeHits.Inc()
	}
	return r.settle(w, c, got, 1, nil), true
}

// settle resolves a cell: it counts retries and failures, caches the
// outcome unless the caller's context ended, and reports the cell done.
func (r *Runner) settle(w *workloads.Workload, c *cell, res *core.Result, attempts int, err error) cacheEntry {
	if r.metrics != nil && attempts > 1 {
		r.metrics.retries.Add(int64(attempts - 1))
	}
	if failure.Ended(err) {
		// A canceled run says nothing about the cell itself; leave the
		// cache empty so a later run with a live context can succeed.
		return cacheEntry{err: err}
	}
	if err != nil {
		res = nil
		if r.metrics != nil {
			r.metrics.failed.Inc()
		}
		err = fmt.Errorf("experiments: %s/config %s/width %d: %w", w.Name, c.cfg.Name, c.width, err)
		if attempts > 1 {
			err = fmt.Errorf("%w (%d attempts)", err, attempts)
		}
	}
	e := cacheEntry{res: res, err: err}
	r.mu.Lock()
	r.cache[runKey{w.Name, c.cfg.Fingerprint(), c.width}] = &e
	r.done++
	if err != nil {
		r.failed++
	}
	done, failed := r.done, r.failed
	r.mu.Unlock()
	if r.OnCellDone != nil {
		r.OnCellDone(done, failed)
	}
	return e
}

// compute simulates and settles cells of one workload. Several cells
// make their first attempt together, as one bank over a single trace
// open (core.Bank); a cell whose banked attempt failed continues under
// the retry policy as a bank of one. A cell whose bank failed as a whole
// (the trace could not be opened or read, or a record was corrupt)
// re-runs from scratch as a bank of one, so it reports exactly what it
// would have alone. One cell is a bank of one from the start.
func (r *Runner) compute(ctx context.Context, w *workloads.Workload, cells []*cell) []cacheEntry {
	out := make([]cacheEntry, len(cells))
	if len(cells) == 1 {
		out[0] = r.computeOne(ctx, w, cells[0], nil)
		return out
	}
	ctx, span := metrics.StartSpan(ctx, "bank")
	if span != nil {
		span.Annotate("workload", w.Name)
		span.Annotate("cells", strconv.Itoa(len(cells)))
		defer span.End()
	}
	tries, bankErr := r.attempt(ctx, w, cells)
	// Cells are booked one by one when the bank ends. Once the caller's
	// context has ended, the rest are dropped unbooked, as the cells a
	// per-cell sweep had not reached yet.
	for i, c := range cells {
		switch {
		case ctx.Err() != nil:
			out[i] = r.settle(w, c, nil, 1, ctx.Err())
		case bankErr != nil && tries[i].Err == bankErr:
			out[i] = r.computeOne(ctx, w, c, nil)
		default:
			if res, err := r.book(ctx, w, c, tries[i]); err != nil {
				out[i] = r.computeOne(ctx, w, c, err)
			} else {
				out[i] = r.settle(w, c, res, 1, nil)
			}
		}
	}
	return out
}

// computeOne computes and settles one cell under the retry policy, as a
// bank of one. first, when non-nil, is the error of an attempt the cell
// already made in a bank: it counts as attempt 1.
func (r *Runner) computeOne(ctx context.Context, w *workloads.Workload, c *cell, first error) cacheEntry {
	var res *core.Result
	policy := retry.Policy{MaxAttempts: r.Retries + 1, BaseDelay: r.RetryDelay}
	attempts, err := retry.Do(ctx, policy, func(n int) error {
		if n == 1 && first != nil {
			return first
		}
		actx, aspan := metrics.StartSpan(ctx, "attempt")
		if aspan != nil {
			aspan.Annotate("n", strconv.Itoa(n))
			defer aspan.End()
		}
		tries, _ := r.attempt(actx, w, []*cell{c})
		var err error
		res, err = r.book(actx, w, c, tries[0])
		return err
	})
	return r.settle(w, c, res, attempts, err)
}

// try is one cell's part in an attempt: its outcome, and whether it got
// as far as the simulator.
type try struct {
	core.Outcome
	ran bool
}

// attempt makes one attempt at cells of one workload: the experiment fault
// point for each cell, the trace, then the simulation as one bank, locally
// or through a BankExecutor, or cell by cell through any other Executor.
// It returns each cell's part and the bank-wide error, if any, which is
// the Err of every cell it failed.
func (r *Runner) attempt(ctx context.Context, w *workloads.Workload, cells []*cell) ([]try, error) {
	tries := make([]try, len(cells))
	var run []*cell
	var at []int
	for i, c := range cells {
		if faultinject.Enabled() {
			if err := faultinject.Check(faultinject.PointExperiment); err != nil {
				tries[i].Err = err
				continue
			}
		}
		run, at = append(run, c), append(at, i)
	}
	if len(run) == 0 {
		return tries, nil
	}
	prov, err := r.provider(ctx, w, run)
	if err != nil {
		for _, i := range at {
			tries[i].Err = err
		}
		return tries, err
	}
	var outs []core.Outcome
	switch be, banks := r.exec.(BankExecutor); {
	case banks:
		bc := make([]core.Cell, len(run))
		for k, c := range run {
			bc[k] = r.bankCell(c)
		}
		ectx, espan := metrics.StartSpan(ctx, "execute")
		outs = be.ExecuteBank(ectx, w, r.scaleFor(w), bc, r.CellTimeout)
		espan.End()
	case r.exec != nil:
		outs = make([]core.Outcome, len(run))
		for k, c := range run {
			outs[k] = r.execute(ctx, w, c)
		}
	default:
		sctx, sspan := metrics.StartSpan(ctx, "simulate")
		outs, err = r.simulate(sctx, prov, run)
		sspan.End()
	}
	for k, i := range at {
		tries[i] = try{outs[k], true}
	}
	return tries, err
}

// execute delegates one cell to an Executor that runs no banks. The cell
// deadline bounds the call; stall supervision does not apply to an
// Executor — progress heartbeats don't cross the wire, and the executor
// owns its own straggler handling (per-request deadlines, hedging).
func (r *Runner) execute(ctx context.Context, w *workloads.Workload, c *cell) core.Outcome {
	timer := perf.Start()
	if r.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.CellTimeout)
		defer cancel()
	}
	ctx, span := metrics.StartSpan(ctx, "execute")
	got, err := r.exec.ExecuteCell(ctx, w, c.cfg, c.width, r.scaleFor(w), r.SelfCheck)
	span.End()
	return core.Outcome{Result: got, Err: err, Seconds: timer.Seconds()}
}

// book takes one cell's part in an attempt: it counts the attempt if it
// reached the simulator and returns the cell's result or its error. A
// deadline that fired on the cell's own budget while the caller's context
// is still live becomes a cell failure rather than a cancellation: it
// degrades one cell, caches, and is never retried. A result is recorded:
// its perf record, its metrics and its best-effort store put (a failed
// write costs durability, never the result; the store counts it in
// Stats.WriteErrors).
func (r *Runner) book(ctx context.Context, w *workloads.Workload, c *cell, t try) (*core.Result, error) {
	if t.ran {
		r.computes.Add(1)
	}
	if t.Err != nil {
		if r.CellTimeout > 0 && ctx.Err() == nil && failure.Of(t.Err) == failure.Deadline {
			return nil, &CellDeadlineError{Timeout: r.CellTimeout}
		}
		return nil, t.Err
	}
	pc := perf.Cell{Workload: w.Name, Config: c.cfg.Name, Width: c.width,
		Instructions: t.Result.Instructions, Seconds: t.Seconds}
	if r.metrics != nil {
		r.metrics.computed.Inc()
		r.metrics.cellSeconds.Observe(pc.Seconds)
	}
	if r.perf != nil {
		r.perf.Record(pc)
	}
	if r.store != nil {
		_, pspan := metrics.StartSpan(ctx, "store.put")
		_ = r.store.PutWithPerf(c.key, t.Result, &store.PerfInfo{Seconds: pc.Seconds, MInstrPerSec: pc.MInstrPerSec()})
		pspan.End()
	}
	return t.Result, nil
}

// provider resolves w's trace and the store keys cells still lack.
func (r *Runner) provider(ctx context.Context, w *workloads.Workload, cells []*cell) (trace.Provider, error) {
	_, tspan := metrics.StartSpan(ctx, "trace-gen")
	prov, err := w.Provider(ctx, r.Scale, r.traceOpts)
	tspan.End()
	if err != nil || r.store == nil {
		return prov, err
	}
	for _, c := range cells {
		if !c.keyed {
			if c.key, err = r.storeKey(w, c.cfg, c.width, prov); err != nil {
				return nil, err
			}
			c.keyed = true
		}
	}
	return prov, nil
}

// simulate runs cells as one bank over a fresh open of prov, under stall
// supervision, and returns each cell's outcome with the bank-wide error,
// if any, that ended the cells still running. Each open replays from the
// start (re-reading a spool, re-running the VM), so a retry never
// resumes a half-consumed stream; closing releases whatever the open
// holds even when the bank stops early.
//
// A watchdog reap fails only the cell whose back end was running when the
// watchdog canceled the bank, whether the bank then stopped within its
// grace period or was abandoned: that cell fails as stalled, the cells
// that had finished keep their outcomes, and the cells the cancellation
// stopped or never reached re-run in a fresh bank. A reap while the front
// end was running, a failed open and an escaped panic are bank-wide.
func (r *Runner) simulate(ctx context.Context, prov trace.Provider, cells []*cell) ([]core.Outcome, error) {
	outs := make([]core.Outcome, len(cells))
	pending := make([]int, len(cells))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		var bank atomic.Pointer[core.Bank]
		blame := make(chan int, 1) // the cell running when the watchdog canceled
		ran, err := watchdog.Run(ctx, r.StallTimeout, func(wctx context.Context, beat func()) ([]core.Outcome, error) {
			bc := make([]core.Cell, len(pending))
			for k, i := range pending {
				bc[k] = r.bankCell(cells[i])
				if r.StallTimeout > 0 {
					bc[k].Params.Progress = func(core.Progress) { beat() }
					bc[k].Params.ProgressEvery = stallHeartbeatEvery
				}
			}
			b, err := core.NewBank(bc, r.CellTimeout)
			if err != nil {
				return nil, err
			}
			if r.StallTimeout > 0 {
				// The watchdog always cancels wctx before it returns.
				context.AfterFunc(wctx, func() { blame <- b.Running() })
			}
			bank.Store(b)
			src, err := prov.Open()
			if err != nil {
				return nil, err
			}
			defer trace.CloseSource(src)
			outs, err := b.Run(wctx, src)
			if err == nil && wctx.Err() != nil && ctx.Err() == nil {
				// The watchdog reaped the bank and it stopped within its
				// grace period: its outcomes are not all real.
				err = wctx.Err()
			}
			return outs, err
		})
		if ran != nil {
			for k, i := range pending {
				outs[i] = ran[k]
			}
			return outs, err
		}
		b, blamed := bank.Load(), -1
		if b != nil && r.StallTimeout > 0 && errors.Is(err, watchdog.ErrStalled) {
			blamed = <-blame
		}
		var rest []int
		for k, i := range pending {
			o, ok := core.Outcome{}, false
			if b != nil {
				o, ok = b.Finished(k)
			}
			// A back end the reap canceled did not finish.
			ok = ok && !(errors.Is(o.Err, context.Canceled) && ctx.Err() == nil)
			switch {
			case ok && (k != blamed || o.Err == nil):
				outs[i] = o
			case blamed < 0 || k == blamed:
				outs[i] = core.Outcome{Err: err}
			default:
				rest = append(rest, i)
			}
		}
		if blamed < 0 {
			return outs, err
		}
		pending = rest
	}
	return outs, nil
}

// bankCell is c as a cell of a bank.
func (r *Runner) bankCell(c *cell) core.Cell {
	return core.Cell{Config: c.cfg, Params: core.Params{Width: c.width, SelfCheck: r.SelfCheck}}
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
// sets and returns the errors.Join of every failed cell (nil when all
// succeeded). It drops cells already in memory or in the store, then
// splits each workload's remaining cells into sub-banks by the workload's
// share of the work, weighted by trace length: workload i, with n_i
// remaining cells over a trace of r_i records, gets
//
//	k_i = min(n_i, max(1, ceil(workers * r_i*n_i / sum_j r_j*n_j)))
//
// sub-banks, so the banks number about as many as the workers
// (WithWorkers; GOMAXPROCS by default) and a long trace does not set the
// sweep's wall time alone. Each sub-bank is one core.Bank over one open of
// the trace, or one call of a BankExecutor; the workers run them, largest
// work first. Cancellation drains the remaining banks without starting
// them.
func (r *Runner) Prefetch(set []*workloads.Workload, cfgs []core.Config, widths []int) error {
	type job struct {
		w       *workloads.Workload
		cells   []*cell
		records int64
	}
	ctx := r.Context()
	workers := r.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var errs []error
	var work []job // one per workload: all its remaining cells
	var total int64
	for _, w := range set {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			return errors.Join(errs...)
		}
		// Resolve trace providers serially first: generation is memoized
		// and must not race heap-heavy VM runs against each other. A
		// workload whose trace fails contributes one error, not one per
		// (config, width) cell.
		prov, err := w.Provider(ctx, r.Scale, r.traceOpts)
		if err != nil {
			errs = append(errs, fmt.Errorf("experiments: tracing %s: %w", w.Name, err))
			continue
		}
		var todo []*cell
		for _, cfg := range cfgs {
			for _, width := range widths {
				if _, ok := r.cached(w, cfg, width); ok {
					continue
				}
				c := &cell{cfg: cfg, width: width}
				if _, ok := r.lookup(ctx, w, c); !ok {
					todo = append(todo, c)
				}
			}
		}
		records, err := trace.ProviderRecords(prov)
		if err != nil || records < 1 {
			records = 1 // only the split and the order need it
		}
		work = append(work, job{w, todo, records})
		total += records * int64(len(todo))
	}
	var jobs []job
	for _, j := range work {
		n := int64(len(j.cells))
		k := int(min(n, max(1, (int64(workers)*j.records*n+total-1)/max(total, 1))))
		for b := 0; b < k; b++ {
			var cells []*cell
			for i := b; i < len(j.cells); i += k {
				cells = append(cells, j.cells[i])
			}
			jobs = append(jobs, job{j.w, cells, j.records})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		return jobs[i].records*int64(len(jobs[i].cells)) > jobs[j].records*int64(len(jobs[j].cells))
	})

	workers = min(workers, len(jobs))
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
				for _, e := range r.compute(ctx, j.w, j.cells) {
					if e.err != nil {
						es = append(es, e.err)
					}
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
