package cluster

// Coordinator: the dispatch half of the compute plane. It implements the
// experiments.Executor seam and its bank extension, so the sweep runner's
// caching, taxonomy retry, and report rendering are untouched — only the
// "simulate" step routes over the wire, one bank per request:
//
//	key    := the bank's trace (generator spec + content hash)
//	target := among the usable workers with the fewest cells in flight,
//	          the trace's rendezvous owner
//	outcomes := POST /cells under the caller's context and a deadline,
//	          hedged once (the worker regenerates the trace the spec names
//	          and runs the cells as one bank)
//	retry:    transiently failed cells, as a smaller bank, on the
//	          next-best worker
//	fallback: the cells left after Retries, as one local bank
//
// Every dispatched cell resolves into exactly one accounting bucket —
// completed (response consumed), failed (transport failure), or
// hedge_wasted (the losing copy of a hedged request) — and every request
// is accounted before the call that sent it returns, so whenever no call
// is in flight, per worker:
//
//	cluster_dispatched_total == cluster_completed_total
//	                          + cluster_failed_total
//	                          + cluster_hedge_wasted_total
//
// The chaos campaign and CI assert this identity straight off /metrics.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// Options configures a Coordinator. The zero value works.
type Options struct {
	// Seed feeds the rendezvous partitioner; a fixed seed shards a fixed
	// grid identically on every run.
	Seed int64
	// BatchTimeout bounds one bank request's round trip (default 2m —
	// generous; per-cell budgets belong to the runner's CellTimeout).
	BatchTimeout time.Duration
	// HedgeAfter sends one speculative copy of a bank request to another
	// worker if the first has not answered after this long (default 30s;
	// < 0 disables hedging).
	HedgeAfter time.Duration
	// Retries is the number of re-sends after a transport failure or
	// transient remote failure (default 2). Permanent remote failures are
	// never re-sent; cells left when retries are exhausted run locally.
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
	// a 3-minute overall timeout (requests carry their own deadlines).
	Client *http.Client
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

// errBankTimeout is the cause of a request that outlived BatchTimeout.
var errBankTimeout = errors.New("cluster: bank request timed out")

// Coordinator shards banks across workers and merges outcomes. Create
// with New, optionally Instrument on a shared registry, then Start; Close
// stops the probe loop and cancels every request still in flight.
type Coordinator struct {
	opt     Options
	names   []string // "w0".."wN" — stable labels for partitioning and metrics
	urls    []string
	clients map[string]*workerClient
	health  *healthTracker

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // the probe loop

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
		opt:     opt,
		clients: make(map[string]*workerClient, len(urls)),
		ctx:     ctx,
		cancel:  cancel,
	}
	for i, u := range urls {
		name := fmt.Sprintf("w%d", i)
		c.names = append(c.names, name)
		c.urls = append(c.urls, u)
		c.clients[name] = newWorkerClient(name, u, opt.Client)
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

// Close stops the probe loop and cancels every request still in flight;
// their callers account them before they return.
func (c *Coordinator) Close() {
	c.cancel()
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

// ExecuteCell implements experiments.Executor: one sweep cell, as a bank
// of one.
func (c *Coordinator) ExecuteCell(ctx context.Context, w *workloads.Workload, cfg core.Config, width, scale int, selfCheck bool) (*core.Result, error) {
	o := c.ExecuteBank(ctx, w, scale, []core.Cell{{Config: cfg, Params: core.Params{Width: width, SelfCheck: selfCheck}}}, 0)[0]
	return o.Result, o.Err
}

// ExecuteBank implements experiments.BankExecutor: cells of one workload
// run as one bank, as core.NewBank(cells, budget) and Bank.Run would run
// them locally. Of each cell's Params, Width, WindowSize and SelfCheck
// cross the wire. Only the (workload, scale) spec and the trace's content
// hash travel; workers regenerate the trace themselves.
func (c *Coordinator) ExecuteBank(ctx context.Context, w *workloads.Workload, scale int, cells []core.Cell, budget time.Duration) []core.Outcome {
	if len(cells) == 0 {
		return nil
	}
	if scale <= 0 {
		scale = w.DefaultScale
	}
	specs := make([]CellSpec, len(cells))
	for i, cl := range cells {
		specs[i] = CellSpec{Config: cl.Config, Width: cl.Params.Width, Window: cl.Params.WindowSize,
			Scale: scale, SelfCheck: cl.Params.SelfCheck, Workload: w.Name}
	}
	return c.execute(ctx, specs, budget)
}

// execute routes a bank — cell specs that name one generator, each with a
// Scale >= 1 — through the cluster. It resolves the generator under the
// coordinator's own trace-plane options, fills in TraceHash, and
// dispatches. A result or a permanent failure settles its cell; the cells
// left re-send together. Each cell's Seconds is the time its bank
// attributed to it plus an equal share of the rest of the call, so the
// cells sum to the call's time, as a local bank's cells sum to the bank's.
func (c *Coordinator) execute(ctx context.Context, specs []CellSpec, budget time.Duration) []core.Outcome {
	start := time.Now()
	outs := make([]core.Outcome, len(specs))
	defer func() { spread(outs, time.Since(start).Seconds()) }()
	prov, err := specs[0].provider(ctx, workloads.ProviderOptions{
		SpoolDir: c.opt.TraceSpoolDir, MaxMem: c.opt.MaxTraceMem})
	var h uint64
	if err == nil {
		h, _, err = prov.ContentHash()
	}
	if err != nil {
		for i := range outs {
			outs[i].Err = err
		}
		return outs
	}
	for i := range specs {
		specs[i].TraceHash = hashString(h)
	}
	key := specs[0].traceKey()

	todo := make([]int, len(specs))
	for i := range todo {
		todo[i] = i
	}
	last := ""
	for attempt := 0; attempt <= c.opt.Retries && len(todo) > 0 && ctx.Err() == nil; attempt++ {
		target := c.pick(key, last)
		if target == "" {
			break
		}
		r := c.sendHedged(ctx, key, target, subset(specs, todo), budget)
		if r.err != nil && ctx.Err() != nil {
			break // the caller gave up mid-dispatch: nothing failed, so nothing is retried
		}
		var rest []int
		for k, i := range todo {
			if r.err == nil && r.outs[k].settles() {
				outs[i] = r.outs[k].outcome()
			} else {
				// A transport failure (health already observed) or a
				// transient remote one — a worker that cannot reproduce
				// the trace included: try the next-best peer.
				rest = append(rest, i)
			}
		}
		c.retriesCtr.Add(int64(len(rest)))
		todo, last = rest, r.worker
	}
	switch {
	case len(todo) == 0:
	case ctx.Err() != nil:
		for _, i := range todo {
			outs[i].Err = ctx.Err()
		}
	default:
		// No usable worker, or retries exhausted — the cluster degrades to
		// exactly the single-process behavior it scaled up from.
		c.fallbacks.Add(int64(len(todo)))
		for k, o := range runBank(ctx, prov, subset(specs, todo), budget) {
			outs[todo[k]] = o
		}
	}
	return outs
}

// settles reports whether a remote outcome is final: a result, or a
// permanent kind, which would fail the same way anywhere. The one
// exception is a worker-side cancellation (the worker's request ended, not
// the caller's), which moves to a peer.
func (o CellOutcome) settles() bool {
	return o.Error == nil || (o.Error.Kind.Permanent() && o.Error.Kind != failure.Canceled)
}

// subset returns the specs at the given indices.
func subset(specs []CellSpec, at []int) []CellSpec {
	out := make([]CellSpec, len(at))
	for k, i := range at {
		out[k] = specs[i]
	}
	return out
}

// spread gives each cell an equal share of the call's time that no bank
// attributed to a cell.
func spread(outs []core.Outcome, wall float64) {
	rest := wall
	for _, o := range outs {
		rest -= o.Seconds
	}
	share := max(rest, 0) / float64(len(outs))
	for i := range outs {
		outs[i].Seconds += share
	}
}

// pick chooses a bank's target among the usable workers: those with the
// fewest cells in flight, and among them the trace's rendezvous owner. So
// an idle cluster keeps trace affinity, and no bank queues behind another
// while a worker sits idle. avoid, the worker a retry or a hedge moves
// away from, is passed over while another worker is usable. Empty string
// means "no usable worker": the caller falls back to local execution.
func (c *Coordinator) pick(key, avoid string) string {
	var least []string
	var load int64
	for _, n := range c.health.UsableWorkers(c.names) {
		if n == avoid {
			continue
		}
		l := c.inflight.With(n).Value()
		if len(least) == 0 || l < load {
			least, load = least[:0], l
		}
		if l == load {
			least = append(least, n)
		}
	}
	if len(least) == 0 {
		if avoid != "" && c.health.Usable(avoid) {
			return avoid
		}
		return ""
	}
	return least[Owner(key, least, c.opt.Seed)]
}

// ---------------------------------------------------------------------------
// Dispatch: hedged bank requests, accounting

// reply is one bank request's resolution.
type reply struct {
	worker string
	outs   []CellOutcome
	err    error // transport-class failure
}

// sendHedged sends a bank to primary and, if HedgeAfter passes first, one
// copy to the best other worker. The first response wins and the other
// copy is canceled; a copy that fails in transport leaves the race to the
// other. Every copy is accounted, in cells, before sendHedged returns.
func (c *Coordinator) sendHedged(ctx context.Context, key, primary string, bank []CellSpec, budget time.Duration) reply {
	n := int64(len(bank))
	replies := make(chan reply, 2) // one per copy: the primary and at most one hedge
	cancels := []context.CancelFunc{c.send(ctx, primary, bank, budget, replies)}
	var hedge <-chan time.Time
	if c.opt.HedgeAfter > 0 {
		t := time.NewTimer(c.opt.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var won reply
	for pending := 1; pending > 0; {
		select {
		case <-hedge:
			hedge = nil // at most one hedge
			if peer := c.pick(key, primary); peer != "" && peer != primary {
				c.hedges.Inc()
				cancels = append(cancels, c.send(ctx, peer, bank, budget, replies))
				pending++
			}
		case r := <-replies:
			pending--
			switch {
			case won.worker != "" && won.err == nil:
				c.hedgeWasted.With(r.worker).Add(n)
			case r.err != nil:
				c.failed.With(r.worker).Add(n)
				won = r
			default:
				c.completed.With(r.worker).Add(n)
				won = r
				for _, cancel := range cancels {
					cancel()
				}
			}
		}
	}
	return won
}

// send launches one bank request to worker under the caller's context,
// bounded by BatchTimeout and canceled by Close, and delivers its reply.
// The bank's cells count as dispatched and in flight from here.
func (c *Coordinator) send(ctx context.Context, worker string, bank []CellSpec, budget time.Duration, replies chan<- reply) context.CancelFunc {
	n := int64(len(bank))
	c.dispatched.With(worker).Add(n)
	c.inflight.With(worker).Add(n)
	ctx, cancel := context.WithTimeoutCause(ctx, c.opt.BatchTimeout, errBankTimeout)
	stop := context.AfterFunc(c.ctx, cancel)
	go func() {
		defer cancel()
		defer stop()
		start := time.Now()
		outs, err := c.clients[worker].ExecBank(ctx, bank, budget)
		c.batchSecs.Observe(time.Since(start).Seconds())
		c.inflight.With(worker).Add(-n)
		// Only the worker's own failures feed its health: a request the
		// caller, a won hedge or Close canceled says nothing about it.
		if err == nil || ctx.Err() == nil || context.Cause(ctx) == errBankTimeout {
			c.health.Observe(worker, err == nil)
		}
		replies <- reply{worker, outs, err}
	}()
	return cancel
}
