package cluster

// Coordinator: the dispatch half of the compute plane. It implements the
// experiments.Executor seam, so the sweep runner's caching, taxonomy
// retry, and report rendering are untouched — only the "simulate" step
// routes over the wire:
//
//	owner  := rendezvous(cellKey, workers, seed)   // deterministic affinity
//	target := owner if usable, else least-loaded usable peer
//	outcome := batch-dispatch(target) with deadline, retry, one hedge
//	          (the worker regenerates the trace the spec names)
//	fallback: local simulation when no worker is usable or retries exhaust
//
// Every dispatched cell resolves into exactly one accounting bucket —
// completed (response consumed), failed (transport error or discarded
// failure), or hedge_wasted (speculative duplicate lost the race) — so at
// quiescence, per worker:
//
//	cluster_dispatched_total == cluster_completed_total
//	                          + cluster_failed_total
//	                          + cluster_hedge_wasted_total
//
// The chaos campaign and CI assert this identity straight off /metrics.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

// Options configures a Coordinator. The zero value works.
type Options struct {
	// Seed feeds the rendezvous partitioner; a fixed seed shards a fixed
	// grid identically on every run.
	Seed int64
	// BatchSize flushes a worker's pending cells at this count (default 8).
	BatchSize int
	// Linger flushes a non-full batch after this long (default 10ms).
	Linger time.Duration
	// BatchTimeout bounds one batch round trip (default 2m — generous;
	// per-cell budgets belong to the runner's CellTimeout).
	BatchTimeout time.Duration
	// HedgeAfter launches one speculative duplicate of a cell on another
	// worker if the first copy has not resolved after this long
	// (default 30s; < 0 disables hedging).
	HedgeAfter time.Duration
	// Retries is the number of re-dispatches after a transport failure or
	// transient remote failure (default 2). Permanent remote failures are
	// never re-dispatched; exhausted retries fall back to local execution.
	Retries int
	// ProbeEvery is the health-probe period (default 3s; < 0 disables the
	// probe loop — dispatch outcomes still feed the tracker).
	ProbeEvery time.Duration
	// Health tunes the failure/flap thresholds (zero fields take defaults).
	FailThreshold int
	FlapWindow    time.Duration
	FlapThreshold int
	QuarantineFor time.Duration
	// Client is the HTTP client for worker calls; nil means a client with
	// a 3-minute overall timeout (batches carry their own deadlines).
	Client *http.Client
	// Store, when non-nil, is consulted before dispatching (and written
	// after local fallback) — normally nil, because the runner above the
	// Executor seam already owns the store.
	Store ResultStore
	// TraceSpoolDir routes the coordinator's own trace generation (for
	// hashing and local fallback) through an on-disk spool
	// (workloads.ProviderOptions.SpoolDir).
	TraceSpoolDir string
	// MaxTraceMem bounds the coordinator's in-memory trace footprint
	// (workloads.ProviderOptions.MaxMem); ignored when TraceSpoolDir is set.
	MaxTraceMem int64
	// now is the injectable clock for tests.
	now func() time.Time
}

func (o *Options) fill() {
	if o.BatchSize <= 0 {
		o.BatchSize = 8
	}
	if o.Linger <= 0 {
		o.Linger = 10 * time.Millisecond
	}
	if o.BatchTimeout <= 0 {
		o.BatchTimeout = 2 * time.Minute
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 30 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 3 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 3 * time.Minute}
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// Coordinator shards cells across workers and merges outcomes. Create with
// New, optionally Instrument on a shared registry, then Start; Close waits
// for in-flight dispatches so the accounting identity holds at return.
type Coordinator struct {
	opt     Options
	names   []string // "w0".."wN" — stable labels for partitioning and metrics
	urls    []string
	clients map[string]*workerClient
	health  *healthTracker

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // flush + drain + probe goroutines

	batchers map[string]*batcher

	// metric handles (rebound by Instrument)
	dispatched  *metrics.CounterVec // cluster_dispatched_total{worker}
	completed   *metrics.CounterVec
	failed      *metrics.CounterVec
	hedgeWasted *metrics.CounterVec
	hedges      *metrics.Counter
	fallbacks   *metrics.Counter
	retriesCtr  *metrics.Counter
	inflight    *metrics.GaugeVec // cluster_inflight_cells{worker}
	batchSecs   *metrics.Histogram
}

// New builds a Coordinator over the given worker base URLs. Workers are
// labeled "w0".."wN" in argument order; the labels — not the URLs — are
// the partitioner's identity, so a worker restarted on a new port keeps
// its shard.
func New(urls []string, opt Options) (*Coordinator, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker URL")
	}
	opt.fill()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opt:      opt,
		clients:  make(map[string]*workerClient, len(urls)),
		batchers: make(map[string]*batcher, len(urls)),
		ctx:      ctx,
		cancel:   cancel,
	}
	for i, u := range urls {
		name := fmt.Sprintf("w%d", i)
		c.names = append(c.names, name)
		c.urls = append(c.urls, u)
		c.clients[name] = newWorkerClient(name, u, opt.Client)
		c.batchers[name] = newBatcher(c, name)
	}
	c.health = newHealthTracker(c.names, healthConfig{
		FailThreshold: opt.FailThreshold, FlapWindow: opt.FlapWindow,
		FlapThreshold: opt.FlapThreshold, QuarantineFor: opt.QuarantineFor, Now: opt.now,
	})
	c.register(metrics.NewRegistry())
	return c, nil
}

func (c *Coordinator) register(reg *metrics.Registry) {
	c.dispatched = reg.CounterVec("cluster_dispatched_total",
		"cells dispatched to workers (each batched send of each cell counts once)", "worker")
	c.completed = reg.CounterVec("cluster_completed_total",
		"dispatched cells whose response was consumed", "worker")
	c.failed = reg.CounterVec("cluster_failed_total",
		"dispatched cells lost to transport failure or discarded on error", "worker")
	c.hedgeWasted = reg.CounterVec("cluster_hedge_wasted_total",
		"dispatched cells whose response lost a hedge race (wasted speculation)", "worker")
	c.hedges = reg.Counter("cluster_hedges_total", "speculative duplicate dispatches launched")
	c.fallbacks = reg.Counter("cluster_local_fallback_total",
		"cells executed locally (no usable worker, or dispatch retries exhausted)")
	c.retriesCtr = reg.Counter("cluster_retries_total", "cell re-dispatches after failures")
	c.inflight = reg.GaugeVec("cluster_inflight_cells", "cells currently in flight per worker", "worker")
	c.batchSecs = reg.Histogram("cluster_batch_seconds", "batch round-trip wall time", nil)
	// Pre-touch every worker's children so the families expose all workers
	// from the first scrape (and the golden exposition stays stable).
	for _, n := range c.names {
		c.dispatched.With(n)
		c.completed.With(n)
		c.failed.With(n)
		c.hedgeWasted.With(n)
		c.inflight.With(n)
	}
}

// Instrument re-registers the coordinator's metric families on a shared
// registry. Call before Start.
func (c *Coordinator) Instrument(reg *metrics.Registry) { c.register(reg) }

// Workers returns the worker labels in partition order.
func (c *Coordinator) Workers() []string { return append([]string(nil), c.names...) }

// Start launches the health-probe loop. Safe to skip in tests that drive
// health purely through dispatch outcomes.
func (c *Coordinator) Start() {
	if c.opt.ProbeEvery < 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.opt.ProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-c.ctx.Done():
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, n := range c.names {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.ctx, 2*time.Second)
			defer cancel()
			err := c.clients[n].Probe(ctx)
			if c.ctx.Err() != nil {
				return // shutdown race: don't count our own cancellation
			}
			c.health.Observe(n, err == nil)
		}(n)
	}
	wg.Wait()
}

// Close stops the probe loop, flushes and waits for every in-flight
// dispatch, and only then returns — the point at which the accounting
// identity is guaranteed to hold.
func (c *Coordinator) Close() {
	c.cancel()
	for _, b := range c.batchers {
		b.stop()
	}
	c.wg.Wait()
}

// Status is one worker's row in the coordinator's health document.
type Status struct {
	Worker      string `json:"worker"`
	URL         string `json:"url"`
	Usable      bool   `json:"usable"`
	Quarantined bool   `json:"quarantined"`
	Dispatched  int64  `json:"dispatched"`
	Completed   int64  `json:"completed"`
	Failed      int64  `json:"failed"`
	HedgeWasted int64  `json:"hedge_wasted"`
}

// StatusAll reports per-worker health and accounting, in partition order.
func (c *Coordinator) StatusAll() []Status {
	out := make([]Status, 0, len(c.names))
	for i, n := range c.names {
		out = append(out, Status{
			Worker:      n,
			URL:         c.urls[i],
			Usable:      c.health.Usable(n),
			Quarantined: c.health.Quarantined(n),
			Dispatched:  c.dispatched.With(n).Value(),
			Completed:   c.completed.With(n).Value(),
			Failed:      c.failed.With(n).Value(),
			HedgeWasted: c.hedgeWasted.With(n).Value(),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Executor seam

// ExecuteCell implements experiments.Executor: resolve one sweep cell
// through the cluster. Only the (workload, scale) spec and the trace's
// content hash travel; workers regenerate the trace themselves.
func (c *Coordinator) ExecuteCell(ctx context.Context, w *workloads.Workload, cfg core.Config, width, scale int, selfCheck bool) (*core.Result, error) {
	if scale <= 0 {
		scale = w.DefaultScale
	}
	return c.execute(ctx, CellSpec{
		Config: cfg, Width: width, Scale: scale, SelfCheck: selfCheck, Workload: w.Name,
	})
}

// cellKey is the partitioner input: every field that distinguishes one
// cell from another, so the owner assignment is a pure function of the
// cell itself.
func (s CellSpec) cellKey() string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%t", s.TraceHash, s.Config.Fingerprint(), s.Width, s.Window, s.Scale, s.SelfCheck)
}

// execute routes one cell spec, which names its generator and carries a
// Scale >= 1, through the cluster: it resolves the generator under the
// coordinator's own trace-plane options, fills in TraceHash, and
// dispatches.
func (c *Coordinator) execute(ctx context.Context, spec CellSpec) (*core.Result, error) {
	prov, err := spec.provider(ctx, workloads.ProviderOptions{
		SpoolDir: c.opt.TraceSpoolDir, MaxMem: c.opt.MaxTraceMem})
	if err != nil {
		return nil, err
	}
	h, _, err := prov.ContentHash()
	if err != nil {
		return nil, err
	}
	spec.TraceHash = hashString(h)
	key := spec.cellKey()

	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target := c.pickWorker(key, attempt)
		if target == "" {
			break
		}
		out, err := c.sendCellHedged(ctx, target, spec)
		if err != nil && ctx.Err() != nil {
			// The caller gave up mid-dispatch: nothing failed, so
			// nothing is retried.
			return nil, err
		}
		if err == nil {
			if out.Error == nil {
				return unmarshalResult(out.Result)
			}
			// A permanent kind would fail the same way anywhere: surface
			// it to the runner unchanged. The one exception is a
			// worker-side cancellation (the worker's request ended, not
			// ours — ctx is checked above), which moves to a peer.
			if k := out.Error.Kind; k.Permanent() && k != failure.Canceled {
				return nil, out.Error
			}
		}
		// A transport failure (health already observed inside the
		// batcher) or a transient remote one — a worker that cannot
		// reproduce the trace included: try the next-best peer.
		c.retriesCtr.Inc()
	}
	// No usable worker, or retries exhausted — the cluster degrades to
	// exactly the single-process behavior it scaled up from.
	return c.localFallback(ctx, prov, spec)
}

// pickWorker chooses the dispatch target for one cell: the rendezvous
// owner when it is usable and this is the first try, otherwise the
// least-loaded usable worker (excluding nobody — a retry may legitimately
// land on the owner again if it recovered). Empty string means "no usable
// worker": the caller falls back to local execution.
func (c *Coordinator) pickWorker(key string, attempt int) string {
	usable := c.health.UsableWorkers(c.names)
	if len(usable) == 0 {
		return ""
	}
	if attempt == 0 {
		owner := c.names[Owner(key, c.names, c.opt.Seed)]
		if c.health.Usable(owner) {
			return owner
		}
	}
	return c.leastLoaded(usable)
}

// leastLoaded returns the usable worker with the fewest in-flight cells,
// ties toward partition order (deterministic).
func (c *Coordinator) leastLoaded(usable []string) string {
	best, bestLoad := usable[0], c.inflight.With(usable[0]).Value()
	for _, n := range usable[1:] {
		if l := c.inflight.With(n).Value(); l < bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}

// hedgePick returns the least-loaded usable worker other than primary, or
// "" when no distinct peer is usable.
func (c *Coordinator) hedgePick(primary string) string {
	usable := c.health.UsableWorkers(c.names)
	peers := usable[:0:0]
	for _, n := range usable {
		if n != primary {
			peers = append(peers, n)
		}
	}
	if len(peers) == 0 {
		return ""
	}
	return c.leastLoaded(peers)
}

// localFallback executes the cell in-process — the transparent degradation
// path when the cluster cannot help. A panic returns as a
// *watchdog.PanicError, as it does in a local Runner and on a worker.
func (c *Coordinator) localFallback(ctx context.Context, prov trace.Provider, spec CellSpec) (*core.Result, error) {
	c.fallbacks.Inc()
	return watchdog.Run(ctx, 0, func(ctx context.Context, _ func()) (*core.Result, error) {
		src, err := prov.Open()
		if err != nil {
			return nil, err
		}
		defer trace.CloseSource(src)
		return core.RunChecked(ctx, src, spec.Config,
			core.Params{Width: spec.Width, WindowSize: spec.Window, SelfCheck: spec.SelfCheck})
	})
}

// ---------------------------------------------------------------------------
// Dispatch: per-worker batching, hedged sends, accounting

// cellSend is one copy of one cell in flight to one worker. Its done
// channel resolves exactly once; whoever consumes the resolution does the
// accounting, so every dispatched send lands in exactly one bucket.
type cellSend struct {
	spec CellSpec
	done chan sendResult // buffered 1
}

type sendResult struct {
	outcome CellOutcome
	worker  string
	err     error // transport-class failure
}

// sendCellHedged dispatches one cell to primary and races a single
// speculative duplicate on another worker if the first copy is still
// unresolved after HedgeAfter. First resolution wins; the loser's
// eventual resolution is drained and accounted as wasted speculation.
func (c *Coordinator) sendCellHedged(ctx context.Context, primary string, spec CellSpec) (*CellOutcome, error) {
	first := c.batchers[primary].enqueue(spec)
	var hedgeTimer *time.Timer
	var hedgeCh <-chan time.Time
	if c.opt.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.opt.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeCh = hedgeTimer.C
	}
	var second *cellSend
	for {
		var secondDone chan sendResult
		if second != nil {
			secondDone = second.done
		}
		select {
		case <-ctx.Done():
			c.drain(first)
			if second != nil {
				c.drain(second)
			}
			return nil, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil // at most one hedge
			if peer := c.hedgePick(primary); peer != "" {
				c.hedges.Inc()
				second = c.batchers[peer].enqueue(spec)
			}
		case r := <-first.done:
			if second != nil {
				c.drain(second)
			}
			return c.consume(r)
		case r := <-secondDone:
			c.drain(first)
			return c.consume(r)
		}
	}
}

// consume accounts the winning resolution: completed when the response is
// used (results and remote failures both branch the caller), failed when
// the transport lost it.
func (c *Coordinator) consume(r sendResult) (*CellOutcome, error) {
	if r.err != nil {
		c.failed.With(r.worker).Inc()
		return nil, r.err
	}
	c.completed.With(r.worker).Inc()
	return &r.outcome, nil
}

// drain accounts a losing (or abandoned) send in the background: an
// arrived response that nobody used is wasted speculation; a transport
// failure is a failure.
func (c *Coordinator) drain(cs *cellSend) {
	select {
	case r := <-cs.done:
		// Already resolved: account inline, no goroutine needed.
		c.accountLoss(r)
	default:
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.accountLoss(<-cs.done)
		}()
	}
}

func (c *Coordinator) accountLoss(r sendResult) {
	if r.err != nil {
		c.failed.With(r.worker).Inc()
		return
	}
	c.hedgeWasted.With(r.worker).Inc()
}

// batcher accumulates cells bound for one worker and flushes them as
// batches: on size, on linger expiry, or on stop.
type batcher struct {
	c    *Coordinator
	name string

	mu      sync.Mutex
	pending []*cellSend
	timer   *time.Timer
	stopped bool
}

func newBatcher(c *Coordinator, name string) *batcher {
	return &batcher{c: c, name: name}
}

// enqueue adds one cell copy to the pending batch and returns its send
// handle. After stop, sends resolve immediately as canceled transport
// failures (shutdown, not worker fault).
func (b *batcher) enqueue(spec CellSpec) *cellSend {
	cs := &cellSend{spec: spec, done: make(chan sendResult, 1)}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		cs.done <- sendResult{worker: b.name, err: &transportError{worker: b.name, err: context.Canceled}}
		return cs
	}
	b.pending = append(b.pending, cs)
	if len(b.pending) >= b.c.opt.BatchSize {
		batch := b.pending
		b.pending = nil
		b.stopTimerLocked()
		b.mu.Unlock()
		b.launch(batch)
		return cs
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.c.opt.Linger, b.flushLinger)
	}
	b.mu.Unlock()
	return cs
}

func (b *batcher) stopTimerLocked() {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
}

func (b *batcher) flushLinger() {
	b.mu.Lock()
	b.timer = nil
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(batch) > 0 {
		b.launch(batch)
	}
}

// stop flushes nothing further; pending cells resolve as canceled.
func (b *batcher) stop() {
	b.mu.Lock()
	b.stopped = true
	b.stopTimerLocked()
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	for _, cs := range batch {
		cs.done <- sendResult{worker: b.name, err: &transportError{worker: b.name, err: context.Canceled}}
	}
}

// launch sends one batch on its own goroutine under the batch deadline.
// Dispatch accounting happens here: every cell in the batch counts as
// dispatched the moment the send launches.
func (b *batcher) launch(batch []*cellSend) {
	c := b.c
	c.dispatched.With(b.name).Add(int64(len(batch)))
	c.inflight.With(b.name).Add(int64(len(batch)))
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.inflight.With(b.name).Add(-int64(len(batch)))
		cells := make([]CellSpec, len(batch))
		for i, cs := range batch {
			cells[i] = cs.spec
		}
		// Parented on the coordinator, not any one caller: a batch
		// aggregates cells from many callers, and Close must be able to
		// cancel a batch stuck on a partitioned worker.
		ctx, cancel := context.WithTimeout(c.ctx, c.opt.BatchTimeout)
		defer cancel()
		start := time.Now()
		outs, err := c.clients[b.name].ExecBatch(ctx, cells)
		c.batchSecs.Observe(time.Since(start).Seconds())
		if err != nil {
			c.health.Observe(b.name, false)
			for _, cs := range batch {
				cs.done <- sendResult{worker: b.name, err: err}
			}
			return
		}
		c.health.Observe(b.name, true)
		for i, cs := range batch {
			cs.done <- sendResult{worker: b.name, outcome: outs[i]}
		}
	}()
}
