package failure_test

// The conformance matrix. Every failure source the three execution paths
// reach — a local experiments.Runner, a ddserve job (server.New behind
// httptest), and a Runner whose Executor is a cluster Coordinator over
// three in-process workers — must fail alike on each path that can raise
// it: the same kind, the same retry decision, and the same rendered report
// cell. A path that cannot raise a row says why in the table.

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

const (
	scale = 20 // every workload trace is past the scheduler's 1024-record context poll
	width = 4
)

type path int

const (
	local path = iota
	served
	clustered
	numPaths
)

var pathNames = [numPaths]string{"local", "served", "clustered"}

// setup is what a row needs around its cell besides the fault itself.
type setup struct {
	stall    time.Duration // Runner.StallTimeout; server Options.StallTimeout
	deadline time.Duration // Runner.CellTimeout; the job's deadline_ms
	drain    bool          // force-drain the server while the cell runs
	store    bool          // give the server a durable store
}

type row struct {
	name  string
	point string       // the faultinject point whose Fired count is the run count
	kind  failure.Kind // "" means the cell must succeed
	// retried: the kind is transient, so every path runs the cell again;
	// otherwise every path runs it exactly once.
	retried bool
	// arm installs the fault; cancel ends the caller's context on the
	// Runner paths.
	arm   func(cancel context.CancelFunc)
	setup setup
	na    map[path]string // why a path cannot raise the row
	// moves marks the one permanent kind the coordinator still moves to a
	// peer: a worker-side cancellation ends the worker's request, not the
	// caller's.
	moves bool
}

// outcome is what one path gave for one row.
type outcome struct {
	kind failure.Kind
	runs int64
	cell string // "" until rendered; never rendered for a canceled cell
}

func injected(err error) func(context.CancelFunc) {
	return func(context.CancelFunc) {
		faultinject.ArmFunc(faultinject.PointCoreRun, func() error { return err }, 0)
	}
}

func matrixRows() []row {
	noServer := "no server: drain is a ddserve state"
	return []row{
		{name: "trace generation fault", point: faultinject.PointTraceGen, kind: failure.Sim, retried: true,
			arm: func(context.CancelFunc) {
				workloads.FlushCache()
				faultinject.Arm(faultinject.PointTraceGen, faultinject.ErrInjected, 0)
			}},
		{name: "experiment fault", point: faultinject.PointExperiment, kind: failure.Sim, retried: true,
			arm: func(context.CancelFunc) {
				faultinject.Arm(faultinject.PointExperiment, faultinject.ErrInjected, 0)
			}},
		{name: "scheduler fault", point: faultinject.PointCoreRun, kind: failure.Sim, retried: true,
			arm: injected(faultinject.ErrInjected)},
		{name: "store faults", point: faultinject.PointStoreGet, setup: setup{store: true},
			arm: func(context.CancelFunc) {
				faultinject.Arm(faultinject.PointStoreGet, faultinject.ErrInjected, 0)
				faultinject.Arm(faultinject.PointStorePut, faultinject.ErrInjected, 0)
			},
			na: map[path]string{
				local:     "the store points sit behind ddserve's circuit breaker",
				clustered: "the store points sit behind ddserve's circuit breaker",
			}},
		{name: "corrupt record", point: faultinject.PointCoreRun, kind: failure.Corrupt,
			arm: injected(fmt.Errorf("%w: injected", trace.ErrCorruptRecord))},
		{name: "invariant", point: faultinject.PointCoreRun, kind: failure.Invariant,
			arm: injected(&core.InvariantError{Invariant: "injected", Detail: "conformance"})},
		{name: "panic", point: faultinject.PointCoreRun, kind: failure.Panic,
			arm: func(context.CancelFunc) {
				faultinject.ArmFunc(faultinject.PointCoreRun, func() error { panic("injected cell panic") }, 0)
			}},
		{name: "stall raised in the scheduler", point: faultinject.PointCoreRun, kind: failure.Stalled,
			arm: injected(fmt.Errorf("%w: injected", watchdog.ErrStalled))},
		{name: "stall reaped by the watchdog", point: faultinject.PointCoreRun, kind: failure.Stalled,
			setup: setup{stall: 50 * time.Millisecond},
			// No heartbeat for 300ms: the watchdog reaps the cell and
			// abandons the sleeper, whose late error ends its run.
			arm: func(context.CancelFunc) {
				faultinject.ArmFunc(faultinject.PointCoreRun, func() error {
					time.Sleep(300 * time.Millisecond)
					return errors.New("woke after the reap")
				}, 0)
			},
			na: map[path]string{clustered: "a Runner with an Executor supervises no stalls, and workers run no watchdog"}},
		// The rows below arm their fault once: a path that wrongly retried
		// the cell would succeed on the second run, which the kind column
		// catches.
		{name: "stall that recovers within the grace period", point: faultinject.PointCoreRun, kind: failure.Stalled,
			setup: setup{stall: 100 * time.Millisecond},
			// Silent for 150ms: the watchdog cancels the cell at ~100ms and
			// the sleeper wakes before the grace period ends at ~200ms, so
			// the run stops on the cancellation instead of being abandoned.
			arm: func(context.CancelFunc) {
				faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
					time.Sleep(150 * time.Millisecond)
					return nil
				}, 0)
			},
			na: map[path]string{clustered: "a Runner with an Executor supervises no stalls, and workers run no watchdog"}},
		{name: "cell deadline", point: faultinject.PointCoreRun, kind: failure.Deadline,
			setup: setup{deadline: 50 * time.Millisecond},
			arm: func(context.CancelFunc) {
				faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
					time.Sleep(150 * time.Millisecond)
					return nil
				}, 0)
			}},
		{name: "cancellation by the caller", point: faultinject.PointCoreRun, kind: failure.Canceled,
			arm: func(cancel context.CancelFunc) {
				faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error { cancel(); return nil }, 0)
			},
			na: map[path]string{served: "a job's context ends only in a forced drain (the drain row)"}},
		{name: "drain", point: faultinject.PointCoreRun, kind: failure.Drain, setup: setup{drain: true},
			arm: func(context.CancelFunc) {
				faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
					time.Sleep(200 * time.Millisecond)
					return nil
				}, 0)
			},
			na: map[path]string{local: noServer, clustered: noServer}},
		{name: "cancellation raised in the scheduler", point: faultinject.PointCoreRun, kind: failure.Canceled,
			arm: injected(fmt.Errorf("stage: %w", context.Canceled)), moves: true},
	}
}

// TestConformanceMatrix drives every row through every path that can
// raise it and checks that the paths agree.
func TestConformanceMatrix(t *testing.T) {
	defer faultinject.Reset()
	rows := matrixRows()
	wls, cfgs := workloads.All(), core.Configs()
	if len(rows) > len(wls)*len(cfgs) {
		t.Fatalf("%d rows, %d distinct cells", len(rows), len(wls)*len(cfgs))
	}
	// Each row fails its own cell: failures are cached, and the Runner
	// paths render every row's cell from one per-benchmark report.
	target := func(i int) (*workloads.Workload, core.Config) {
		return wls[i%len(wls)], cfgs[i/len(wls)]
	}

	// A worker stops a cell whose caller gave up at the cell's next
	// context poll, after the call has returned; the next row's fault must
	// not fire in that bank's last records, so each clustered row waits
	// out the workers' requests: each holds a read lock while it runs.
	var urls []string
	var handling sync.RWMutex
	for i := 0; i < 3; i++ {
		h := cluster.NewWorker(cluster.WorkerOptions{}).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handling.RLock()
			defer handling.RUnlock()
			h.ServeHTTP(w, r)
		}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	coord, err := cluster.New(urls, cluster.Options{Seed: 1, HedgeAfter: -1, ProbeEvery: -1, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	runners := map[path]*experiments.Runner{
		local:     experiments.NewRunner(scale),
		clustered: experiments.NewRunner(scale).WithExecutor(coord),
	}
	for _, r := range runners {
		r.Retries, r.RetryDelay = 1, time.Millisecond
	}

	got := make([][numPaths]*outcome, len(rows))
	for i, rw := range rows {
		w, cfg := target(i)
		for p := path(0); p < numPaths; p++ {
			if rw.na[p] != "" {
				continue
			}
			faultinject.Reset()
			if p == served {
				got[i][p] = runServed(t, rw, w, cfg)
			} else {
				got[i][p] = runRunner(runners[p], rw, w, cfg)
			}
			if p == clustered {
				accounted(t, rw.name, coord)
				handling.Lock() // every worker request of the row has ended
				handling.Unlock()
			}
			faultinject.Reset()
		}
	}

	// Render the Runner paths' cells, every fault disarmed.
	for p, r := range runners {
		cells := perBenchCells(t, r)
		for i := range rows {
			if o := got[i][p]; o != nil && o.kind != failure.Canceled {
				w, cfg := target(i)
				o.cell = cells[w.Name+"/"+cfg.Name]
			}
		}
	}

	for i, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			if rw.kind != "" && rw.kind.Permanent() == rw.retried {
				t.Errorf("the permanence table calls %q permanent=%t", rw.kind, rw.kind.Permanent())
			}
			var cell string
			for p := path(0); p < numPaths; p++ {
				o := got[i][p]
				if o == nil {
					t.Logf("%-9s n/a: %s", pathNames[p], rw.na[p])
					continue
				}
				t.Logf("%-9s kind %q, %d run(s), cell %q", pathNames[p], o.kind, o.runs, o.cell)
				if o.kind != rw.kind {
					t.Errorf("%s: kind %q, want %q", pathNames[p], o.kind, rw.kind)
				}
				switch {
				case rw.kind == "":
					if o.runs < 1 {
						t.Errorf("%s: the fault point never fired", pathNames[p])
					}
				case rw.retried || (rw.moves && p == clustered):
					if o.runs < 2 {
						t.Errorf("%s: ran %d time(s), want a retry", pathNames[p], o.runs)
					}
				default:
					if o.runs != 1 {
						t.Errorf("%s: permanent kind ran %d times, want once", pathNames[p], o.runs)
					}
				}
				if o.cell == "" {
					continue // a canceled cell is never cached, so no Runner report renders it
				}
				if rw.kind != "" && o.cell != rw.kind.Cell() {
					t.Errorf("%s: cell %q, want %q", pathNames[p], o.cell, rw.kind.Cell())
				}
				if rw.kind == "" && strings.HasPrefix(o.cell, "n/a") {
					t.Errorf("%s: cell %q, want an IPC", pathNames[p], o.cell)
				}
				if cell != "" && o.cell != cell {
					t.Errorf("%s: cell %q, another path rendered %q", pathNames[p], o.cell, cell)
				}
				cell = o.cell
			}
		})
	}
}

// runRunner resolves one cell on a Runner path.
func runRunner(r *experiments.Runner, rw row, w *workloads.Workload, cfg core.Config) *outcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.StallTimeout, r.CellTimeout = rw.setup.stall, rw.setup.deadline
	defer func() { r.StallTimeout, r.CellTimeout = 0, 0 }()
	rw.arm(cancel)
	_, err := r.ResultCtx(ctx, w, cfg, width)
	return &outcome{kind: failure.Of(err), runs: faultinject.Fired(rw.point)}
}

// runServed runs one cell as a one-cell ddserve sweep on a fresh server.
func runServed(t *testing.T, rw row, w *workloads.Workload, cfg core.Config) *outcome {
	t.Helper()
	opt := server.Options{Workers: 1, QueueDepth: 4, Scale: scale, Retries: 1, StallTimeout: rw.setup.stall}
	if rw.setup.store {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opt.Store = st
	}
	srv := server.New(opt)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()
	rw.arm(nil)

	var sw server.Sweep
	body, _ := json.Marshal(server.SweepSpec{Workloads: []string{w.Name}, Configs: []string{cfg.Name},
		Widths: []int{width}, DeadlineMS: rw.setup.deadline.Milliseconds()})
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&sw)
	resp.Body.Close()
	if err != nil || len(sw.JobIDs) != 1 {
		t.Fatalf("sweep submission: %v, %+v", err, sw)
	}
	job := func() (j server.Job) {
		getJSON(t, ts.URL+"/jobs/"+sw.JobIDs[0], &j)
		return j
	}
	if rw.setup.drain {
		for deadline := time.Now().Add(10 * time.Second); job().State != server.StateRunning; {
			if time.Now().After(deadline) {
				t.Fatal("the job never started")
			}
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_ = srv.Drain(ctx) // forced: the running job is canceled
	} else {
		defer srv.Drain(context.Background())
	}

	var doc struct {
		Complete bool
		Report   string
	}
	for deadline := time.Now().Add(30 * time.Second); !doc.Complete; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never completed")
		}
		getJSON(t, ts.URL+"/sweeps/"+sw.ID, &doc)
	}
	o := &outcome{runs: faultinject.Fired(rw.point), cell: sweepCell(t, doc.Report)}
	if j := job(); j.Error != nil {
		o.kind = j.Error.Kind
	}
	return o
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// sweepCell extracts the one cell of a one-cell sweep report
// (Workload Config Width IPC); the cell itself may contain spaces.
func sweepCell(t *testing.T, report string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	f := strings.Fields(lines[len(lines)-1])
	if len(f) < 4 {
		t.Fatalf("malformed sweep report:\n%s", report)
	}
	return strings.Join(f[3:], " ")
}

// perBenchCells renders the per-benchmark report and indexes its cells by
// "workload/config".
func perBenchCells(t *testing.T, r *experiments.Runner) map[string]string {
	t.Helper()
	rep, err := experiments.PerBenchmarkReport(r, width)
	if err != nil {
		t.Fatalf("PerBenchmarkReport: %v", err)
	}
	recs, err := csv.NewReader(strings.NewReader(rep.CSV)).ReadAll()
	if err != nil || len(recs) < 2 {
		t.Fatalf("per-benchmark CSV: %v\n%s", err, rep.CSV)
	}
	cells := map[string]string{}
	for _, rec := range recs[1:] {
		for j, c := range rec[1:] {
			cells[rec[0]+"/"+recs[0][j+1]] = c
		}
	}
	return cells
}

// accounted checks the per-worker accounting identity right after a
// clustered row: with no hedge armed, every dispatch is accounted by the
// time the executor call returns.
func accounted(t *testing.T, row string, coord *cluster.Coordinator) {
	t.Helper()
	for _, s := range coord.StatusAll() {
		if s.Dispatched != s.Completed+s.Failed+s.HedgeWasted {
			t.Errorf("%s: worker %s: dispatched %d != completed %d + failed %d + hedge_wasted %d",
				row, s.Worker, s.Dispatched, s.Completed, s.Failed, s.HedgeWasted)
		}
	}
}
