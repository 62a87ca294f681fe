// Package server is the long-running simulation job service: it accepts
// simulation cells and sweep grids over HTTP/JSON, executes them on a
// bounded worker pool over the experiments.Runner / internal/store stack,
// and is robust by construction:
//
//   - admission control: a bounded queue; a full queue sheds load with
//     429 + Retry-After instead of growing memory, and requests are never
//     left hanging;
//   - per-job deadlines: every job runs under context.WithTimeout,
//     propagated down through the Runner into core.RunChecked and
//     watchdog.Run;
//   - panic isolation: a panicking cell becomes a structured JobError, and
//     a cell that crashes repeatedly is quarantined instead of re-run;
//   - a circuit breaker around store I/O (see Breaker): a failing disk
//     degrades durability, never liveness;
//   - graceful drain: Drain stops admissions, lets in-flight jobs finish
//     (their results checkpoint to the store as usual), cancels jobs that
//     never started, and bounds the whole sequence with a context.
//
// Endpoints: POST /jobs, GET /jobs/{id}, POST /sweeps, GET /sweeps/{id},
// GET /healthz, GET /readyz. See docs/robustness.md §7 for the contract.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

// Options configures a Server. The zero value serves with conservative
// defaults; fields default individually.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS capped at 4.
	Workers int
	// QueueDepth bounds the number of admitted-but-unfinished-admission
	// jobs; <= 0 means 64. Admission beyond it sheds with 429.
	QueueDepth int
	// DefaultDeadline bounds jobs that do not set deadline_ms; <= 0 means
	// one minute.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines; <= 0 means 10 minutes.
	MaxDeadline time.Duration
	// StallTimeout reaps a cell whose progress heartbeat goes silent
	// (watchdog supervision); 0 disables it.
	StallTimeout time.Duration
	// Retries re-attempts transiently failing cells (experiments.Runner
	// semantics).
	Retries int
	// Scale is the workload scale for all jobs; 0 means workload defaults.
	Scale int
	// TraceSpoolDir routes workload traces through an on-disk spool
	// (experiments.Runner.WithTraceSpool) instead of materializing them.
	TraceSpoolDir string
	// MaxTraceMem bounds the in-memory trace footprint in bytes
	// (experiments.Runner.WithMaxTraceMem); ignored when TraceSpoolDir is
	// set.
	MaxTraceMem int64
	// QuarantineAfter is the number of crashes before a cell is
	// quarantined; <= 0 means 2.
	QuarantineAfter int
	// BreakerThreshold / BreakerCooldown configure the store circuit
	// breaker (defaults 5 failures / 5s). Ignored without a Store.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Store, when non-nil, persists every completed cell (wrapped in the
	// circuit breaker) so a drained or crashed server resumes from disk.
	Store experiments.ResultStore
	// MaxJobs bounds retained terminal job records; <= 0 means 65536.
	// The oldest terminal jobs are forgotten first (404 afterwards).
	MaxJobs int
	// Scrubber, when non-nil, is the store's background integrity scrub;
	// the server only reports its counters on /healthz — the owner
	// (ddserve) starts and stops it around the serve lifetime.
	Scrubber *store.Scrubber
	// DisableMetrics removes the GET /metrics and GET /jobs/{id}/trace
	// endpoints. The registry still exists (Metrics() keeps working, and
	// internal instrumentation is unconditional); only the HTTP surface
	// is withheld.
	DisableMetrics bool
	// Coordinator, when non-nil, routes every cell computation through a
	// worker cluster (ddserve -coordinator). The server instruments it on
	// its registry and owns Start/Close around the serve lifetime.
	Coordinator *cluster.Coordinator
	// Worker, when non-nil, mounts the cell-execution API (POST /cells,
	// GET /workerz) so this process serves as a cluster worker (ddserve
	// -worker). A process can be both (a coordinator that also executes),
	// though ddserve exposes them as distinct roles.
	Worker *cluster.Worker
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = time.Minute
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 10 * time.Minute
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 2
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 65536
	}
	return o
}

// Sweep is one admitted sweep request: a grid of cells expanded into jobs
// in deterministic (workload, config, width) order.
type Sweep struct {
	ID     string    `json:"id"`
	Spec   SweepSpec `json:"spec"`
	JobIDs []string  `json:"jobs"`
}

// SweepSpec is the client-supplied sweep grid. Empty slices mean the
// paper's defaults (all six workloads, configs A-E, widths 4 and 8).
type SweepSpec struct {
	Workloads  []string `json:"workloads,omitempty"`
	Configs    []string `json:"configs,omitempty"`
	Widths     []int    `json:"widths,omitempty"`
	SelfCheck  bool     `json:"selfcheck,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"` // per cell
}

// Server is the simulation job service. Create with New, wire Handler
// into an http.Server, call Start, and Drain on shutdown.
type Server struct {
	opt     Options
	breaker *Breaker
	// Two runners share the store but split by self-check mode: the
	// Runner's cell cache is keyed without it, so each mode needs its own.
	plain   *experiments.Runner
	checked *experiments.Runner
	quar    *quarantine
	mux     *http.ServeMux

	ctx    context.Context // cancels in-flight jobs on forced shutdown
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	reg *metrics.Registry
	met *serverMetrics

	mu       sync.Mutex
	jobs     map[string]*Job
	terminal []string // FIFO of terminal job IDs for MaxJobs eviction
	sweeps   map[string]*Sweep
	queued   int // reserved queue slots (admission control invariant)
	draining bool
	started  bool
	nextID   int64
}

// New builds a Server (workers not yet started; call Start).
func New(opt Options) *Server {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:    opt,
		quar:   newQuarantine(opt.QuarantineAfter),
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *Job, opt.QueueDepth),
		jobs:   make(map[string]*Job),
		sweeps: make(map[string]*Sweep),
	}
	var st experiments.ResultStore
	if opt.Store != nil {
		s.breaker = NewBreaker(opt.Store, opt.BreakerThreshold, opt.BreakerCooldown)
		st = s.breaker
	}
	s.reg = metrics.NewRegistry()
	s.met = newServerMetrics(s.reg, s)
	mk := func(selfCheck bool, mode string) *experiments.Runner {
		r := experiments.NewRunner(opt.Scale)
		r.SelfCheck = selfCheck
		r.Retries = opt.Retries
		r.StallTimeout = opt.StallTimeout
		if st != nil {
			r.WithStoreHandle(st)
		}
		r.WithMetrics(experiments.NewRunnerMetrics(s.reg, mode))
		if opt.TraceSpoolDir != "" {
			r.WithTraceSpool(opt.TraceSpoolDir)
		}
		if opt.MaxTraceMem > 0 {
			r.WithMaxTraceMem(opt.MaxTraceMem)
		}
		if opt.Coordinator != nil {
			r.WithExecutor(opt.Coordinator)
		}
		return r
	}
	s.plain, s.checked = mk(false, "plain"), mk(true, "checked")
	if opt.Coordinator != nil {
		opt.Coordinator.Instrument(s.reg)
	}
	if opt.Worker != nil {
		opt.Worker.Instrument(s.reg)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.instrumented("/jobs", s.handleSubmitJob))
	mux.HandleFunc("GET /jobs/{id}", s.instrumented("/jobs/{id}", s.handleGetJob))
	mux.HandleFunc("POST /sweeps", s.instrumented("/sweeps", s.handleSubmitSweep))
	mux.HandleFunc("GET /sweeps/{id}", s.instrumented("/sweeps/{id}", s.handleGetSweep))
	mux.HandleFunc("GET /healthz", s.instrumented("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrumented("/readyz", s.handleReadyz))
	if !opt.DisableMetrics {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
		mux.HandleFunc("GET /jobs/{id}/trace", s.instrumented("/jobs/{id}/trace", s.handleJobTrace))
	}
	if opt.Worker != nil {
		mux.HandleFunc("POST /cells", s.instrumented("/cells", opt.Worker.HandleCells))
		mux.HandleFunc("GET /workerz", s.instrumented("/workerz", opt.Worker.HandleStatus))
	}
	s.mux = mux
	return s
}

// Role names the process's cluster role for logs and /healthz: "worker",
// "coordinator", or "" for a plain single-process server.
func (s *Server) Role() string {
	switch {
	case s.opt.Coordinator != nil:
		return "coordinator"
	case s.opt.Worker != nil:
		return "worker"
	}
	return ""
}

// Peers reports how many workers a coordinator dispatches to (0 otherwise).
func (s *Server) Peers() int {
	if s.opt.Coordinator == nil {
		return 0
	}
	return len(s.opt.Coordinator.Workers())
}

// Metrics returns the server's registry so owners (ddserve) can register
// further families — store I/O latency, scrubber pace — on the same
// /metrics page.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain gracefully shuts the server down: stop admitting (submissions get
// 503, readyz goes unready), cancel queued-but-unstarted jobs with
// KindDrain, let in-flight jobs finish (checkpointing to the store as
// usual), and return when the pool is idle. If ctx expires first, running
// jobs are canceled and Drain returns ctx's error after a short grace
// period — the exit-code taxonomy maps it to "canceled".
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already draining")
	}
	s.draining = true
	close(s.queue) // admissions are guarded by draining under the same mutex
	s.mu.Unlock()
	s.met.drains.With("begin").Inc()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.met.drains.With("clean").Inc()
		return nil
	case <-ctx.Done():
		s.cancel() // forced: cancel in-flight jobs
		s.met.drains.With("forced").Inc()
		select {
		case <-done:
			return fmt.Errorf("server: drain deadline exceeded; in-flight jobs canceled: %w", ctx.Err())
		case <-time.After(5 * time.Second):
			return fmt.Errorf("server: drain: workers unresponsive after cancellation: %w", ctx.Err())
		}
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shed reports how many submissions were rejected by admission control.
func (s *Server) Shed() int64 { return s.met.shed.Value() }

// runnerFor picks the runner matching the job's self-check mode.
func (s *Server) runnerFor(j *Job) *experiments.Runner {
	if j.Spec.SelfCheck {
		return s.checked
	}
	return s.plain
}

// --- workers -----------------------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.mu.Lock()
		s.queued--
		draining := s.draining
		s.mu.Unlock()
		job.queuedSpan.End()
		if draining || s.ctx.Err() != nil {
			s.finish(job, StateCanceled, nil,
				&JobError{Kind: KindDrain, Message: "server draining; job was never started"})
			continue
		}
		s.runJob(job)
	}
}

func (s *Server) runJob(job *Job) {
	key := job.key()
	if s.quar.isBlocked(key) {
		s.finish(job, StateFailed, nil, &JobError{Kind: KindQuarantined,
			Message: fmt.Sprintf("cell %s/%s/w%d crashed repeatedly and is quarantined",
				job.Spec.Workload, job.Spec.Config, job.Spec.Width)})
		return
	}
	s.setState(job, StateRunning)
	s.met.running.Add(1)
	defer s.met.running.Add(-1)

	ctx, cancel := context.WithTimeout(s.ctx, job.deadline)
	defer cancel()
	ctx = metrics.WithTrace(ctx, job.trace)
	ctx, run := metrics.StartSpan(ctx, "run")

	var res *core.Result
	var err error
	func() {
		// Panic isolation for panics on the worker goroutine itself
		// (stall supervision off, or a panic outside the supervised
		// region); supervised panics arrive as *watchdog.PanicError.
		defer func() {
			if r := recover(); r != nil {
				err = &watchdog.PanicError{Value: r, Stack: "recovered at server worker"}
			}
		}()
		res, err = s.runnerFor(job).ResultCtx(ctx, job.w, job.cfg, job.Spec.Width)
	}()

	jerr := classify(err, s.Draining())
	if jerr != nil {
		run.Annotate("outcome", jerr.Kind)
		run.End()
		if jerr.Kind == KindPanic {
			if s.quar.recordCrash(key) {
				s.met.quarTrips.Inc()
			}
		}
		state := StateFailed
		if jerr.Kind == KindDrain || jerr.Kind == KindCanceled {
			state = StateCanceled
		}
		s.finish(job, state, nil, jerr)
		return
	}
	run.Annotate("outcome", "done")
	run.End()
	s.finish(job, StateDone, &JobResult{
		IPC:          res.IPC(),
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		SelfChecks:   res.SelfChecks,
	}, nil)
}

// --- job bookkeeping ---------------------------------------------------------

func (s *Server) setState(j *Job, st JobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State = st
}

func (s *Server) finish(j *Job, st JobState, res *JobResult, jerr *JobError) {
	j.queuedSpan.End() // no-op if the job left the queue normally
	s.met.observeOutcome(st, time.Since(j.admitted))
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State = st
	j.Result = res
	j.Error = jerr
	s.terminal = append(s.terminal, j.ID)
	// Bounded memory: forget the oldest terminal jobs beyond MaxJobs.
	for len(s.terminal) > s.opt.MaxJobs {
		evict := s.terminal[0]
		s.terminal = s.terminal[1:]
		delete(s.jobs, evict)
	}
}

// jobDoc snapshots a job for JSON rendering.
func (s *Server) jobDoc(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// --- admission ---------------------------------------------------------------

// buildJob validates and resolves one spec into a Job (not yet admitted).
func (s *Server) buildJob(spec JobSpec) (*Job, error) {
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	cfg, err := core.ConfigByName(spec.Config)
	if err != nil {
		return nil, fmt.Errorf("unknown config %q", spec.Config)
	}
	if spec.Width < 1 || spec.Width > 4096 {
		return nil, fmt.Errorf("width %d out of range [1, 4096]", spec.Width)
	}
	if spec.DeadlineMS < 0 {
		return nil, fmt.Errorf("negative deadline_ms %d", spec.DeadlineMS)
	}
	deadline := time.Duration(spec.DeadlineMS) * time.Millisecond
	if deadline == 0 {
		deadline = s.opt.DefaultDeadline
	}
	if deadline > s.opt.MaxDeadline {
		return nil, fmt.Errorf("deadline_ms %d exceeds the maximum %d",
			spec.DeadlineMS, s.opt.MaxDeadline.Milliseconds())
	}
	return &Job{Spec: spec, State: StateQueued, w: w, cfg: cfg, deadline: deadline}, nil
}

// admitErr distinguishes the two admission refusals.
type admitErr int

const (
	admitOK admitErr = iota
	admitDraining
	admitFull
)

// admit reserves queue slots for all jobs or none: a sweep is admitted
// whole or shed whole, so a half-admitted grid can never wedge a client.
// The reservation invariant (queued <= QueueDepth, decremented on dequeue)
// guarantees the channel send below never blocks.
func (s *Server) admit(jobs []*Job, sweepID string) admitErr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return admitDraining
	}
	if s.queued+len(jobs) > s.opt.QueueDepth {
		return admitFull
	}
	s.queued += len(jobs)
	for _, j := range jobs {
		s.nextID++
		j.ID = "job-" + strconv.FormatInt(s.nextID, 10)
		j.Sweep = sweepID
		j.admitted = time.Now()
		j.trace = metrics.NewTrace(j.ID)
		j.queuedSpan = j.trace.StartSpan("queued", nil)
		s.jobs[j.ID] = j
		s.queue <- j
	}
	s.met.admitted.Add(int64(len(jobs)))
	return admitOK
}

// retryAfter estimates (whole seconds, >= 1) how long a shed client should
// wait: the queue must drain by roughly one job per worker-slot turn.
func (s *Server) retryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	secs := s.queued / s.opt.Workers / 4
	if secs < 1 {
		secs = 1
	}
	return secs
}

// --- HTTP handlers -----------------------------------------------------------

const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errDoc struct {
	Error string `json:"error"`
}

// shed writes the load-shedding refusal for one admission failure. Both
// refusals advertise the same computed Retry-After estimate — a draining
// server's clients should poll on the queue-drain timescale too, not a
// hardcoded 30s that disagrees with the 429 path.
func (s *Server) shedResponse(w http.ResponseWriter, why admitErr) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	switch why {
	case admitDraining:
		writeJSON(w, http.StatusServiceUnavailable, errDoc{Error: "server is draining"})
	default:
		s.met.shed.Inc()
		writeJSON(w, http.StatusTooManyRequests, errDoc{Error: "queue full; retry later"})
	}
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errDoc{Error: "bad job spec: " + err.Error()})
		return
	}
	job, err := s.buildJob(spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errDoc{Error: err.Error()})
		return
	}
	if why := s.admit([]*Job{job}, ""); why != admitOK {
		s.shedResponse(w, why)
		return
	}
	doc, _ := s.jobDoc(job.ID)
	writeJSON(w, http.StatusAccepted, doc)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.jobDoc(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errDoc{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errDoc{Error: "bad sweep spec: " + err.Error()})
		return
	}
	if len(spec.Workloads) == 0 {
		for _, wl := range workloads.All() {
			spec.Workloads = append(spec.Workloads, wl.Name)
		}
	}
	if len(spec.Configs) == 0 {
		for _, cfg := range core.Configs() {
			spec.Configs = append(spec.Configs, cfg.Name)
		}
	}
	if len(spec.Widths) == 0 {
		spec.Widths = []int{4, 8}
	}
	// Deterministic cell order: workload major, then config, then width —
	// the sweep report depends on it for byte-stable resume comparisons.
	var jobs []*Job
	for _, wl := range spec.Workloads {
		for _, cfg := range spec.Configs {
			for _, width := range spec.Widths {
				job, err := s.buildJob(JobSpec{Workload: wl, Config: cfg, Width: width,
					SelfCheck: spec.SelfCheck, DeadlineMS: spec.DeadlineMS})
				if err != nil {
					writeJSON(w, http.StatusBadRequest, errDoc{Error: err.Error()})
					return
				}
				jobs = append(jobs, job)
			}
		}
	}
	if len(jobs) == 0 {
		writeJSON(w, http.StatusBadRequest, errDoc{Error: "empty sweep grid"})
		return
	}

	s.mu.Lock()
	s.nextID++
	sweep := &Sweep{ID: "sweep-" + strconv.FormatInt(s.nextID, 10), Spec: spec}
	s.mu.Unlock()
	if why := s.admit(jobs, sweep.ID); why != admitOK {
		s.shedResponse(w, why)
		return
	}
	for _, j := range jobs {
		sweep.JobIDs = append(sweep.JobIDs, j.ID)
	}
	s.mu.Lock()
	s.sweeps[sweep.ID] = sweep
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, sweep)
}

// sweepDoc is the GET /sweeps/{id} response.
type sweepDoc struct {
	Sweep
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Canceled int    `json:"canceled"`
	Pending  int    `json:"pending"`
	Complete bool   `json:"complete"`
	Report   string `json:"report,omitempty"` // rendered when complete
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sweep, ok := s.sweeps[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errDoc{Error: "unknown sweep"})
		return
	}
	doc := sweepDoc{Sweep: *sweep}
	jobs := make([]Job, 0, len(sweep.JobIDs))
	for _, id := range sweep.JobIDs {
		j, ok := s.jobs[id]
		if !ok { // evicted: render as canceled-unknown
			doc.Canceled++
			jobs = append(jobs, Job{ID: id, State: StateCanceled})
			continue
		}
		jobs = append(jobs, *j)
		switch j.State {
		case StateDone:
			doc.Done++
		case StateFailed:
			doc.Failed++
		case StateCanceled:
			doc.Canceled++
		default:
			doc.Pending++
		}
	}
	s.mu.Unlock()
	doc.Complete = doc.Pending == 0
	if doc.Complete {
		doc.Report = renderSweepReport(jobs)
	}
	writeJSON(w, http.StatusOK, doc)
}

// renderSweepReport renders a completed sweep as a text table. It is a
// pure function of the cells' specs and outcomes — no IDs, no timestamps —
// so an interrupted-and-resumed sweep renders byte-identically to an
// uninterrupted one (the chaos harness asserts exactly that).
func renderSweepReport(jobs []Job) string {
	t := stats.NewTable("Workload", "Config", "Width", "IPC")
	for _, j := range jobs {
		cell := "n/a"
		switch {
		case j.State == StateDone && j.Result != nil:
			cell = strconv.FormatFloat(j.Result.IPC, 'f', 4, 64)
		case j.Error != nil:
			cell = "n/a (" + j.Error.Kind + ")"
		}
		t.AddRow(j.Spec.Workload, j.Spec.Config, strconv.Itoa(j.Spec.Width), cell)
	}
	return t.String()
}

// --- health ------------------------------------------------------------------

// Health is the GET /healthz document.
type Health struct {
	State             string            `json:"state"` // serving | draining
	Workers           int               `json:"workers"`
	QueueDepth        int               `json:"queue_depth"`
	Queued            int               `json:"queued"`
	Running           int64             `json:"running"`
	Jobs              int               `json:"jobs"` // retained job records
	Shed              int64             `json:"shed"`
	Quarantined       int               `json:"quarantined"`
	WatchdogAbandoned int64             `json:"watchdog_abandoned"`
	Goroutines        int               `json:"goroutines"`
	Breaker           *BreakerStats     `json:"breaker,omitempty"`
	Store             *store.Stats      `json:"store,omitempty"`
	Scrub             *store.ScrubStats `json:"scrub,omitempty"`
	// Cluster role: "worker", "coordinator", or absent for a plain server.
	Role    string           `json:"role,omitempty"`
	Peers   int              `json:"peers,omitempty"`   // coordinator: worker count
	Cluster []cluster.Status `json:"cluster,omitempty"` // coordinator: per-worker health + accounting
}

// HealthSnapshot builds the health document (also used by ddserve logs).
func (s *Server) HealthSnapshot() Health {
	s.mu.Lock()
	state := "serving"
	if s.draining {
		state = "draining"
	}
	h := Health{
		State:      state,
		Workers:    s.opt.Workers,
		QueueDepth: s.opt.QueueDepth,
		Queued:     s.queued,
		Jobs:       len(s.jobs),
	}
	s.mu.Unlock()
	h.Running = s.met.running.Value()
	h.Shed = s.met.shed.Value()
	h.Quarantined = s.quar.count()
	h.WatchdogAbandoned = watchdog.Abandoned()
	h.Goroutines = runtime.NumGoroutine()
	if s.breaker != nil {
		bs := s.breaker.BreakerStats()
		h.Breaker = &bs
		ss := s.breaker.Stats()
		h.Store = &ss
	}
	if s.opt.Scrubber != nil {
		sc := s.opt.Scrubber.Stats()
		h.Scrub = &sc
	}
	h.Role = s.Role()
	if s.opt.Coordinator != nil {
		h.Peers = s.Peers()
		h.Cluster = s.opt.Coordinator.StatusAll()
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.HealthSnapshot())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, full := s.draining, s.queued >= s.opt.QueueDepth
	s.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, errDoc{Error: "draining"})
	case full:
		writeJSON(w, http.StatusServiceUnavailable, errDoc{Error: "queue full"})
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	}
}
