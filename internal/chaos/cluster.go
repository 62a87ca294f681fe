package chaos

// Multi-worker cluster campaign: a coordinator sharding the full Table 1
// sweep across three workers while a seeded fault driver kills workers
// (503s), restarts them (fresh process state — the trace cache is gone,
// the durable store survives), and partitions one (requests hang until
// the request deadline reaps them). The contract under all of that:
//
//   - at least one kill and one partition land while the sweep runs;
//   - the merged sweep report is byte-identical to an undisturbed
//     single-process run, with no degraded ("n/a") cells;
//   - every shed submission is an immediate 429 with Retry-After;
//   - the dispatch accounting identity holds on /metrics at quiescence:
//     dispatched == completed + failed + hedge_wasted, per worker;
//   - /healthz reports the coordinator role and peer count throughout;
//   - all goroutines settle once everything is closed.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

// ClusterOptions configures the campaign.
type ClusterOptions struct {
	// Seed makes the fault schedule's choices reproducible.
	Seed int64
	// Scale is the workload scale for every cell; <= 0 means 50.
	Scale int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// ClusterSummary is the campaign outcome.
type ClusterSummary struct {
	Workers     int      `json:"workers"`
	Cells       int      `json:"cells"`
	Kills       int      `json:"kills"`
	Restarts    int      `json:"restarts"`
	Partitions  int      `json:"partitions"`
	Shed        int      `json:"shed"`
	Dispatched  int64    `json:"dispatched"`
	Completed   int64    `json:"completed"`
	Failed      int64    `json:"failed"`
	HedgeWasted int64    `json:"hedge_wasted"`
	Hedges      int64    `json:"hedges"`
	Fallbacks   int64    `json:"fallbacks"`
	Violations  []string `json:"violations,omitempty"`
}

// flakyWorker wraps one worker's handler with a fault mode. "Kill" answers
// 503 (the process is gone; connections refuse fast); "partition" hangs
// every request until the client's deadline reaps it (the network ate the
// packets); "restart" swaps in a brand-new cluster.Worker — its count of
// resolved traces reset, durable store kept — and heals the mode.
type flakyWorker struct {
	st      *store.Store
	mode    atomic.Int32 // 0 ok; 1 killed; 2 partitioned
	handler atomic.Value // http.Handler
}

func newFlakyWorker(st *store.Store) *flakyWorker {
	f := &flakyWorker{st: st}
	f.restart()
	return f
}

func (f *flakyWorker) restart() {
	w := cluster.NewWorker(cluster.WorkerOptions{Store: f.st})
	f.handler.Store(w.Handler())
	f.mode.Store(0)
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch f.mode.Load() {
	case 1:
		http.Error(w, "chaos: worker killed", http.StatusServiceUnavailable)
	case 2:
		// Drain the body first: the server only watches for client
		// disconnect (and cancels r.Context) once the request body is
		// consumed, and a partition that outlives Close would wedge the
		// test's shutdown.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	default:
		f.handler.Load().(http.Handler).ServeHTTP(w, r)
	}
}

// RunCluster executes the campaign. The error is non-nil iff any invariant
// was violated (the violations are also in the Summary).
func RunCluster(opt ClusterOptions) (*ClusterSummary, error) {
	if opt.Scale <= 0 {
		opt.Scale = 50
	}
	if opt.Log == nil {
		opt.Log = func(string, ...any) {}
	}
	dir, err := os.MkdirTemp("", "ddserve-cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	const nWorkers = 3
	sum := &ClusterSummary{Workers: nWorkers}
	baseline := runtime.NumGoroutine()

	// Undisturbed single-process baseline: same grid, same scale, no
	// cluster anywhere near it.
	opt.Log("cluster: baseline single-process sweep (scale %d)", opt.Scale)
	baselineReport, took, v := clusterBaseline(opt.Scale)
	if v != "" {
		sum.Violations = append(sum.Violations, "baseline: "+v)
		return sum, fmt.Errorf("chaos: cluster baseline failed: %s", v)
	}
	// The fault cadence follows the sweep's own length, so the faults land
	// while it runs however fast the cells are.
	step := max(took/16, time.Millisecond)
	opt.Log("cluster: baseline sweep took %v; one fault every %v on average",
		took.Round(time.Millisecond), step.Round(time.Millisecond))

	// Three workers behind fault-injecting wrappers, each with its own
	// durable store (a restarted worker resumes from disk, like a real
	// redeploy would).
	flakies := make([]*flakyWorker, nWorkers)
	urls := make([]string, nWorkers)
	workerTS := make([]*httptest.Server, nWorkers)
	for i := range flakies {
		st, serr := store.Open(filepath.Join(dir, fmt.Sprintf("worker-%d", i)))
		if serr != nil {
			return sum, serr
		}
		flakies[i] = newFlakyWorker(st)
		workerTS[i] = httptest.NewServer(flakies[i])
		urls[i] = workerTS[i].URL
	}
	defer func() {
		for _, ts := range workerTS {
			ts.Close()
		}
	}()

	hc := &http.Client{Timeout: 15 * time.Second}
	coord, err := cluster.New(urls, cluster.Options{
		Seed:          opt.Seed,
		BatchTimeout:  2 * time.Second,
		HedgeAfter:    150 * time.Millisecond,
		Retries:       3,
		ProbeEvery:    100 * time.Millisecond,
		FailThreshold: 2,
		QuarantineFor: 300 * time.Millisecond,
		Client:        hc,
	})
	if err != nil {
		return sum, err
	}
	srv := server.New(server.Options{
		Workers:         nWorkers,
		QueueDepth:      64,
		Scale:           opt.Scale,
		DefaultDeadline: 60 * time.Second,
		Coordinator:     coord,
	})
	coord.Start()
	ts := httptest.NewServer(srv.Handler())
	c := newClient(ts.URL)
	defer c.c.CloseIdleConnections()
	defer hc.CloseIdleConnections()

	// Fault injector, started before the sweep is admitted: seeded kills,
	// restarts, partitions and heals at random workers, every kind once
	// per round of four in a seeded order, step/2 to 3·step/2 apart,
	// until the sweep completes. Local fallback makes even an
	// all-workers-dead window survivable. Only faults that land while the
	// sweep is live count towards the kill-and-partition gate.
	var sweepLive atomic.Bool
	var liveKills, livePartitions int // the injector's; read after stopInjector
	stop := make(chan struct{})
	var injector sync.WaitGroup
	stopInjector := sync.OnceFunc(func() { close(stop); injector.Wait() })
	defer stopInjector()
	injector.Add(1)
	go func() {
		defer injector.Done()
		frng := rand.New(rand.NewSource(opt.Seed + 7))
		var round []int
		for {
			select {
			case <-stop:
				return
			case <-time.After(step/2 + time.Duration(frng.Int63n(int64(step)))):
			}
			if len(round) == 0 {
				round = frng.Perm(4)
			}
			kind := round[0]
			round = round[1:]
			i := frng.Intn(nWorkers)
			live := sweepLive.Load()
			switch kind {
			case 0:
				flakies[i].mode.Store(1)
				sum.Kills++
				if live {
					liveKills++
				}
				opt.Log("cluster: fault: kill w%d", i)
			case 1:
				flakies[i].restart()
				sum.Restarts++
				opt.Log("cluster: fault: restart w%d", i)
			case 2:
				flakies[i].mode.Store(2)
				sum.Partitions++
				if live {
					livePartitions++
				}
				opt.Log("cluster: fault: partition w%d", i)
			case 3:
				flakies[i].mode.Store(0)
				opt.Log("cluster: fault: heal w%d", i)
			}
		}
	}()

	// Submit the full Table 1 grid (the SweepSpec zero value), then burst
	// single-job submissions past the queue to force shedding while the
	// sweep occupies the queue. The server's workers start after the
	// burst: a queue that drains as fast as the burst fills it (cells
	// cost about a millisecond at this scale) would shed nothing.
	code, body, _, err := c.post("/sweeps", server.SweepSpec{})
	if err != nil || code != http.StatusAccepted {
		sum.Violations = append(sum.Violations, fmt.Sprintf("sweep submit: code %d err %v", code, err))
		return sum, fmt.Errorf("chaos: cluster sweep submit failed")
	}
	sweepLive.Store(true)
	var sweep server.Sweep
	if err := json.Unmarshal(body, &sweep); err != nil {
		return sum, err
	}
	sum.Cells = len(sweep.JobIDs)

	var burstIDs []string
	brng := rand.New(rand.NewSource(opt.Seed + 101))
	for j := 0; j < 64; j++ {
		code, body, hdr, err := c.post("/jobs", randomSpec(brng))
		switch {
		case err != nil:
			sum.Violations = append(sum.Violations, "burst submit: "+err.Error())
		case code == http.StatusAccepted:
			var job server.Job
			if json.Unmarshal(body, &job) == nil && job.ID != "" {
				burstIDs = append(burstIDs, job.ID)
			}
		case code == http.StatusTooManyRequests:
			if hdr.Get("Retry-After") == "" {
				sum.Violations = append(sum.Violations, "429 without Retry-After")
			}
			sum.Shed++
		default:
			sum.Violations = append(sum.Violations, fmt.Sprintf("burst submission got %d: %s", code, body))
		}
	}
	if sum.Shed == 0 {
		sum.Violations = append(sum.Violations, "burst past a sweep-filled queue was never shed")
	}
	srv.Start()

	// The sweep must complete despite the faults.
	var report string
	deadline := time.Now().Add(4 * time.Minute)
	for {
		var doc struct {
			Complete bool   `json:"complete"`
			Report   string `json:"report"`
		}
		if _, err := c.get("/sweeps/"+sweep.ID, &doc); err != nil {
			sum.Violations = append(sum.Violations, "sweep poll: "+err.Error())
			break
		}
		if doc.Complete {
			report = doc.Report
			break
		}
		if time.Now().After(deadline) {
			sum.Violations = append(sum.Violations, "sweep never completed under chaos")
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sweepLive.Store(false)
	stopInjector()
	for _, f := range flakies {
		f.mode.Store(0) // heal for the remaining burst jobs
	}
	if liveKills == 0 || livePartitions == 0 {
		sum.Violations = append(sum.Violations, fmt.Sprintf(
			"the sweep ran under %d kill(s) and %d partition(s); the campaign needs at least one of each",
			liveKills, livePartitions))
	}

	// Every admitted burst job must still reach a terminal state.
	jobDeadline := time.Now().Add(2 * time.Minute)
	for _, id := range burstIDs {
		for {
			var job server.Job
			code, err := c.get("/jobs/"+id, &job)
			if err != nil || code != http.StatusOK {
				sum.Violations = append(sum.Violations, fmt.Sprintf("get %s: code %d err %v", id, code, err))
				break
			}
			if job.State.Terminal() {
				break
			}
			if time.Now().After(jobDeadline) {
				sum.Violations = append(sum.Violations, id+": never reached a terminal state")
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Byte-identity against the undisturbed run, and no degraded cells.
	if report != baselineReport {
		sum.Violations = append(sum.Violations, fmt.Sprintf(
			"cluster report diverged from single-process run:\n--- cluster ---\n%s\n--- single-process ---\n%s",
			report, baselineReport))
	}
	if strings.Contains(report, "n/a") {
		sum.Violations = append(sum.Violations, "cluster sweep has degraded cells:\n"+report)
	}

	// The health document must carry the cluster role end-to-end.
	var h server.Health
	if code, err := c.get("/healthz", &h); err != nil || code != http.StatusOK {
		sum.Violations = append(sum.Violations, fmt.Sprintf("healthz: code %d err %v", code, err))
	} else {
		if h.Role != "coordinator" || h.Peers != nWorkers {
			sum.Violations = append(sum.Violations, fmt.Sprintf(
				"healthz role=%q peers=%d, want coordinator/%d", h.Role, h.Peers, nWorkers))
		}
		if len(h.Cluster) != nWorkers {
			sum.Violations = append(sum.Violations, fmt.Sprintf(
				"healthz cluster rows: %d, want %d", len(h.Cluster), nWorkers))
		}
	}

	// Drain, then close the coordinator: Close waits out every in-flight
	// send, so the accounting identity must hold exactly on the next
	// /metrics scrape.
	drainCtx, cancel := contextWithTimeout(60 * time.Second)
	derr := srv.Drain(drainCtx)
	cancel()
	if derr != nil {
		sum.Violations = append(sum.Violations, "drain: "+derr.Error())
	}
	coord.Close()
	sum.Violations = append(sum.Violations, checkClusterIdentity(c, nWorkers, sum)...)

	ts.Close()
	c.c.CloseIdleConnections()
	hc.CloseIdleConnections()
	for _, wts := range workerTS {
		wts.Close()
	}

	// Goroutine settle: coordinator requests, probe loop, worker pools —
	// all gone.
	settled := false
	for settle := time.Now().Add(15 * time.Second); time.Now().Before(settle); {
		if runtime.NumGoroutine() <= baseline+4 {
			settled = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !settled {
		sum.Violations = append(sum.Violations, fmt.Sprintf(
			"goroutine leak after shutdown: %d running, baseline %d", runtime.NumGoroutine(), baseline))
	}

	if len(sum.Violations) > 0 {
		return sum, fmt.Errorf("chaos: cluster campaign: %d violation(s); first: %s",
			len(sum.Violations), sum.Violations[0])
	}
	return sum, nil
}

// clusterBaseline runs the default sweep grid on a plain single-process
// server and returns its rendered report and how long the sweep took from
// submission to completion.
func clusterBaseline(scale int) (string, time.Duration, string) {
	srv := server.New(server.Options{Workers: 3, QueueDepth: 64, Scale: scale,
		DefaultDeadline: 60 * time.Second})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.c.CloseIdleConnections()

	start := time.Now()
	code, body, _, err := c.post("/sweeps", server.SweepSpec{})
	if err != nil || code != http.StatusAccepted {
		return "", 0, fmt.Sprintf("submit: code %d err %v", code, err)
	}
	var sweep server.Sweep
	if err := json.Unmarshal(body, &sweep); err != nil {
		return "", 0, err.Error()
	}
	deadline := time.Now().Add(4 * time.Minute)
	for {
		var doc struct {
			Complete bool   `json:"complete"`
			Report   string `json:"report"`
		}
		if _, err := c.get("/sweeps/"+sweep.ID, &doc); err != nil {
			return "", 0, err.Error()
		}
		if doc.Complete {
			took := time.Since(start)
			drainCtx, cancel := contextWithTimeout(60 * time.Second)
			defer cancel()
			if derr := srv.Drain(drainCtx); derr != nil {
				return "", 0, "drain: " + derr.Error()
			}
			return doc.Report, took, ""
		}
		if time.Now().After(deadline) {
			return "", 0, "sweep never completed"
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkClusterIdentity scrapes /metrics and asserts, per worker,
//
//	cluster_dispatched_total == cluster_completed_total
//	                          + cluster_failed_total
//	                          + cluster_hedge_wasted_total
//
// filling the summary's counters along the way.
func checkClusterIdentity(c *client, nWorkers int, sum *ClusterSummary) (violations []string) {
	resp, err := c.c.Get(c.base + "/metrics")
	if err != nil {
		return []string{"metrics fetch: " + err.Error()}
	}
	defer resp.Body.Close()
	vals, err := metrics.ParseText(resp.Body)
	if err != nil {
		return []string{"metrics parse: " + err.Error()}
	}
	for i := 0; i < nWorkers; i++ {
		at := func(fam string) int64 {
			return int64(vals[fmt.Sprintf("%s{worker=%q}", fam, fmt.Sprintf("w%d", i))])
		}
		d := at("cluster_dispatched_total")
		done := at("cluster_completed_total")
		failed := at("cluster_failed_total")
		wasted := at("cluster_hedge_wasted_total")
		if d != done+failed+wasted {
			violations = append(violations, fmt.Sprintf(
				"w%d: dispatched %d != completed %d + failed %d + hedge_wasted %d",
				i, d, done, failed, wasted))
		}
		sum.Dispatched += d
		sum.Completed += done
		sum.Failed += failed
		sum.HedgeWasted += wasted
	}
	sum.Hedges = int64(vals["cluster_hedges_total"])
	sum.Fallbacks = int64(vals["cluster_local_fallback_total"])
	return violations
}
