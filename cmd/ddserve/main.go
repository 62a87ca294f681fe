// ddserve runs the simulation job service (internal/server): an HTTP/JSON
// server accepting single simulation cells (POST /jobs) and sweep grids
// (POST /sweeps), executed on a bounded worker pool with admission
// control, per-job deadlines, panic quarantine, a circuit breaker around
// store I/O, and graceful drain on SIGINT/SIGTERM.
//
//	ddserve -addr :8080 -store results/     # serve with a durable store
//	ddserve -soak                           # chaos soak campaign (CI gate)
//	ddserve -soak -schedules 8 -seed 7      # shorter, different faults
//	ddserve -worker -addr :9001             # cluster worker (cell-execution API)
//	ddserve -coordinator http://h1:9001,http://h2:9001   # shard sweeps across workers
//	ddserve -cluster-soak -seed 1           # multi-worker chaos campaign (CI gate)
//
// On SIGINT/SIGTERM the server drains: admissions stop (503), in-flight
// jobs finish and checkpoint, queued jobs are canceled. A drain that beats
// -drain-timeout exits 0; one that exceeds it cancels in-flight jobs and
// exits 130, following the exit-code contract in docs/robustness.md §4:
// 0 ok, 1 failure (including soak violations), 2 usage, 130 canceled.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		storeDir   = flag.String("store", "", "durable result store directory (empty = none; results live in memory only)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS capped at 4)")
		queue      = flag.Int("queue", 64, "admission queue depth; beyond it submissions shed with 429")
		deadline   = flag.Duration("deadline", time.Minute, "default per-job deadline")
		maxDL      = flag.Duration("max-deadline", 10*time.Minute, "cap on client-requested deadlines")
		stall      = flag.Duration("stall-timeout", 30*time.Second, "reap a cell whose progress heartbeat goes silent (0 = off)")
		retries    = flag.Int("retries", 1, "re-attempts for transiently failing cells")
		quarantine = flag.Int("quarantine", 2, "crashes before a cell is quarantined")
		brkThresh  = flag.Int("breaker-threshold", 5, "consecutive store I/O failures before the breaker opens")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "breaker open time before a half-open probe")
		scale      = flag.Int("scale", 0, "workload scale for all jobs (0 = workload defaults)")
		spoolDir   = flag.String("spool", "", "spool workload traces to this directory instead of holding them in memory")
		maxTraceMB = flag.Int64("max-trace-mem", 0, "in-memory trace budget in MiB; larger traces regenerate on demand (0 = unbounded)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")
		soak       = flag.Bool("soak", false, "run the chaos soak campaign instead of serving")
		schedules  = flag.Int("schedules", 64, "soak: number of randomized fault schedules")
		seed       = flag.Int64("seed", 1, "soak/powerfail: campaign seed")
		soakDir    = flag.String("soak-dir", "", "soak: scratch directory (empty = temp)")
		powerfail  = flag.Bool("powerfail", false, "run the power-fail crash-consistency campaign instead of serving")
		trials     = flag.Int("trials", 8, "powerfail: number of randomized kill-points")
		scrubEvery = flag.Duration("scrub-interval", 0, "background store scrub pass interval (0 = scrubbing off; needs -store)")
		scrubRate  = flag.Duration("scrub-rate", 10*time.Millisecond, "background scrub per-entry pacing")
		metricsOn  = flag.Bool("metrics", true, "serve GET /metrics (Prometheus text) and GET /jobs/{id}/trace")
		workerMode = flag.Bool("worker", false, "serve as a cluster worker: expose the cell-execution API (POST /cells, GET /workerz); traces regenerate from each cell's spec")
		coordPeers = flag.String("coordinator", "", "serve as a cluster coordinator: comma-separated worker base URLs (e.g. http://h1:9001,http://h2:9001)")
		hedgeAfter = flag.Duration("hedge-after", 30*time.Second, "coordinator: speculatively re-send a bank request still unanswered after this long (<0 = off)")
		clusterS   = flag.Bool("cluster-soak", false, "run the multi-worker chaos campaign instead of serving")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		cli.Exit("ddserve", cli.Usagef("unexpected arguments: %v", flag.Args()))
	}
	logger := log.New(os.Stderr, "ddserve: ", log.LstdFlags)

	if *soak {
		cli.Exit("ddserve", runSoak(logger, *seed, *schedules, *soakDir))
		return
	}
	if *powerfail {
		cli.Exit("ddserve", runPowerFail(logger, *seed, *trials))
		return
	}
	if *clusterS {
		cli.Exit("ddserve", runClusterSoak(logger, *seed))
		return
	}
	cli.Exit("ddserve", serve(logger, options{
		addr: *addr, storeDir: *storeDir, drainTimeout: *drainTO,
		scrubInterval: *scrubEvery, scrubRate: *scrubRate,
		worker: *workerMode, coordinator: *coordPeers,
		seed: *seed, hedgeAfter: *hedgeAfter,
		opt: server.Options{
			Workers:          *workers,
			QueueDepth:       *queue,
			DefaultDeadline:  *deadline,
			MaxDeadline:      *maxDL,
			StallTimeout:     *stall,
			Retries:          *retries,
			Scale:            *scale,
			TraceSpoolDir:    *spoolDir,
			MaxTraceMem:      *maxTraceMB << 20,
			QuarantineAfter:  *quarantine,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCool,
			DisableMetrics:   !*metricsOn,
		},
	}))
}

type options struct {
	addr          string
	storeDir      string
	drainTimeout  time.Duration
	scrubInterval time.Duration
	scrubRate     time.Duration
	worker        bool
	coordinator   string // comma-separated worker URLs; non-empty enables the role
	seed          int64
	hedgeAfter    time.Duration
	opt           server.Options
}

func serve(logger *log.Logger, o options) error {
	if err := cli.CheckSpool(o.opt.TraceSpoolDir); err != nil {
		return err
	}
	var st *store.Store
	if o.storeDir != "" {
		var err error
		st, err = store.Open(o.storeDir)
		if err != nil {
			return fmt.Errorf("opening store: %w", err)
		}
		var rs experiments.ResultStore = st
		o.opt.Store = rs
		if n, err := st.Len(); err == nil {
			msg := fmt.Sprintf("durable store: %s (%d entries)", o.storeDir, n)
			if cleaned := st.Stats().TmpCleaned; cleaned > 0 {
				msg += fmt.Sprintf(", %d stale temp file(s) cleaned", cleaned)
			}
			logger.Print(msg)
		}
		if o.scrubInterval > 0 {
			sc := store.NewScrubber(st, o.scrubRate, o.scrubInterval)
			o.opt.Scrubber = sc
			sc.Start()
			defer sc.Stop()
			logger.Printf("background scrub: every %s, one entry per %s", o.scrubInterval, o.scrubRate)
		}
	}
	// Cluster roles. A worker mounts the cell-execution API; a coordinator
	// routes every cell computation across its peers. The ISSUE's peer list
	// rides on -coordinator (not -workers, which has always been the local
	// pool size).
	if o.worker {
		o.opt.Worker = cluster.NewWorker(cluster.WorkerOptions{Store: storeOrNil(st),
			SpoolDir: o.opt.TraceSpoolDir, MaxTraceMem: o.opt.MaxTraceMem})
	}
	var coord *cluster.Coordinator
	if o.coordinator != "" {
		urls := splitPeers(o.coordinator)
		var err error
		coord, err = cluster.New(urls, cluster.Options{Seed: o.seed, HedgeAfter: o.hedgeAfter,
			TraceSpoolDir: o.opt.TraceSpoolDir, MaxTraceMem: o.opt.MaxTraceMem})
		if err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		o.opt.Coordinator = coord
	}
	srv := server.New(o.opt)
	// Register the storage layer's families on the server's registry so
	// one /metrics page carries the whole stack.
	if st != nil {
		st.Instrument(srv.Metrics())
	}
	if o.opt.Scrubber != nil {
		o.opt.Scrubber.Instrument(srv.Metrics())
	}
	if coord != nil {
		coord.Start() // server.New already instrumented it
		defer coord.Close()
	}
	srv.Start()

	hs := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	role := ""
	if r := srv.Role(); r != "" {
		role = " role=" + r
		if r == "coordinator" {
			role += fmt.Sprintf(" peers=%d", srv.Peers())
		}
	}
	logger.Printf("serving on %s (workers=%d queue=%d%s)", o.addr,
		srv.HealthSnapshot().Workers, srv.HealthSnapshot().QueueDepth, role)

	// Wait for a signal (or a listener failure, which is fatal).
	ctx, stop := cli.Context(0)
	defer stop()
	select {
	case err := <-errc:
		return fmt.Errorf("listen: %w", err)
	case <-ctx.Done():
	}
	stop() // second signal kills the process, shell-style

	logger.Printf("signal received; draining (budget %s)", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	derr := srv.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = hs.Shutdown(shutCtx)

	if derr != nil {
		// Forced drain wraps context.DeadlineExceeded: cli.Code maps it to
		// 130 (canceled), matching the pipeline's exit-code taxonomy.
		return derr
	}
	h := srv.HealthSnapshot()
	logger.Printf("drained clean: %d job records, %d shed, %d quarantined", h.Jobs, h.Shed, h.Quarantined)
	reportRole := srv.Role()
	if reportRole == "coordinator" {
		reportRole = fmt.Sprintf("coordinator peers=%d", srv.Peers())
	}
	cli.ReportStore("ddserve", reportRole, st)
	logMetricsSnapshot(logger, srv)
	return nil
}

// storeOrNil adapts a possibly-nil *store.Store to the worker's interface
// field (a typed nil inside a non-nil interface would defeat its nil check).
func storeOrNil(st *store.Store) cluster.ResultStore {
	if st == nil {
		return nil
	}
	return st
}

// splitPeers parses the -coordinator URL list.
func splitPeers(s string) []string {
	var urls []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	return urls
}

// logMetricsSnapshot logs the registry's headline job counters on clean
// drain — the same numbers /metrics served, snapshotted into the shutdown
// log for post-mortems that only have stderr.
func logMetricsSnapshot(logger *log.Logger, srv *server.Server) {
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		return
	}
	vals, err := metrics.ParseText(&buf)
	if err != nil {
		return
	}
	logger.Printf("metrics: admitted=%.0f done=%.0f failed=%.0f canceled=%.0f shed=%.0f job_seconds_sum=%.3f",
		vals["server_jobs_admitted_total"], vals["server_jobs_done_total"],
		vals["server_jobs_failed_total"], vals["server_jobs_canceled_total"],
		vals["server_shed_total"], vals["server_job_seconds_sum"])
}

// runPowerFail executes the crash-consistency campaign (chaos.RunPowerFail):
// randomized power cuts mid-sweep over a simulated filesystem, each
// followed by a verify + resume + byte-identity check. Any violation is a
// failure (exit 1) — CI gates on it.
func runPowerFail(logger *log.Logger, seed int64, trials int) error {
	start := time.Now()
	sum, err := chaos.RunPowerFail(chaos.PowerFailOptions{Seed: seed, Trials: trials, Log: logger})
	if err != nil {
		return err
	}
	logger.Printf("powerfail: %d trial(s) in %s", sum.Trials, time.Since(start).Round(time.Millisecond))
	if n := len(sum.Violations); n > 0 {
		return fmt.Errorf("powerfail: %d violation(s); first: %s", n, sum.Violations[0])
	}
	return nil
}

// runClusterSoak executes the multi-worker chaos campaign
// (chaos.RunCluster): a 3-worker in-process cluster sweeping the full
// Table 1 grid while workers are killed, restarted, and partitioned; the
// merged report must stay byte-identical to an undisturbed single-process
// run and the dispatch accounting identity must hold. Any violation is a
// failure (exit 1) — CI gates on it.
func runClusterSoak(logger *log.Logger, seed int64) error {
	start := time.Now()
	sum, err := chaos.RunCluster(chaos.ClusterOptions{Seed: seed, Log: logger.Printf})
	if sum != nil {
		logger.Printf("cluster-soak: %d cells over %d workers (%d dispatched, %d hedged, %d fallback) in %s",
			sum.Cells, sum.Workers, sum.Dispatched, sum.Hedges, sum.Fallbacks,
			time.Since(start).Round(time.Millisecond))
		for _, v := range sum.Violations {
			logger.Printf("cluster-soak: VIOLATION: %s", v)
		}
	}
	return err
}

func runSoak(logger *log.Logger, seed int64, schedules int, dir string) error {
	logger.Printf("soak: %d schedules, seed %d", schedules, seed)
	start := time.Now()
	sum, err := chaos.Run(chaos.Options{
		Seed:      seed,
		Schedules: schedules,
		Dir:       dir,
		Log:       logger.Printf,
	})
	if sum != nil {
		logger.Printf("soak: %d submitted, %d accepted, %d shed, %d done, %d failed (kinds %v), resume_ok=%v in %s",
			sum.Submitted, sum.Accepted, sum.Shed, sum.Done, sum.Failed, sum.FailKinds,
			sum.ResumeOK, time.Since(start).Round(time.Millisecond))
		for _, v := range sum.Violations {
			logger.Printf("soak: VIOLATION: %s", v)
		}
	}
	return err
}
