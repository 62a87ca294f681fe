package cluster

// End-to-end tests for the compute plane: a real Worker behind httptest, a
// Coordinator dispatching to it, and local execution as the referee.
// Simulation is deterministic, so every remote result must be Diff-empty
// against the local one — that is the whole point of the plane.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/workloads"
)

const testScale = 40

func testOpts() Options {
	return Options{
		Seed:       1,
		BatchSize:  4,
		Linger:     time.Millisecond,
		HedgeAfter: -1, // off unless the test is about hedging
		ProbeEvery: -1, // dispatch outcomes drive health in tests
		Retries:    2,
	}
}

func localCell(t *testing.T, w *workloads.Workload, cfg core.Config, width int) *core.Result {
	t.Helper()
	buf, _, err := w.TraceCachedCtx(context.Background(), testScale)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	res, err := core.RunChecked(context.Background(), buf.Reader(), cfg, core.Params{Width: width})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return res
}

func mustWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	return w
}

func mustConfig(t *testing.T, name string) core.Config {
	t.Helper()
	cfg, err := core.ConfigByName(name)
	if err != nil {
		t.Fatalf("config %s: %v", name, err)
	}
	return cfg
}

// TestExecuteCellMatchesLocalAndShipsTraceOnce: two cells over one
// workload match local execution, and the trace reaches the worker once —
// as a cell spec it regenerates a single time for both cells, never as
// trace bytes on the wire.
func TestExecuteCellMatchesLocalAndShipsTraceOnce(t *testing.T) {
	wk := NewWorker(WorkerOptions{})
	handler := wk.Handler()
	var wireBytes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		wireBytes.Add(int64(len(body)))
		r.Body = io.NopCloser(bytes.NewReader(body))
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	coord, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := mustWorkload(t, "compress")
	for _, cfgName := range []string{"A", "D"} {
		cfg := mustConfig(t, cfgName)
		got, err := coord.ExecuteCell(context.Background(), w, cfg, 4, testScale, false)
		if err != nil {
			t.Fatalf("ExecuteCell(%s): %v", cfgName, err)
		}
		want := localCell(t, w, cfg, 4)
		if diff := want.Diff(got); len(diff) > 0 {
			t.Fatalf("remote result diverges from local (%s): %v", cfgName, diff)
		}
	}

	// One workload, two cells: the trace was materialised on the worker
	// exactly once, and everything sent to it is smaller than the trace
	// itself at one byte per record.
	if n := wk.regens.Value(); n != 1 {
		t.Fatalf("worker resolved the trace %d times, want 1", n)
	}
	buf, _, err := w.TraceCachedCtx(context.Background(), testScale)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if n := wireBytes.Load(); n == 0 || n >= int64(buf.Len()) {
		t.Fatalf("%d request bytes reached the worker for a %d-record trace; want spec-sized requests", n, buf.Len())
	}
	if n := wk.cells.With("computed").Value(); n != 2 {
		t.Fatalf("worker computed %d cells, want 2", n)
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Fatalf("local fallback used %d times on a healthy cluster", n)
	}
}

func TestRestartedWorkerRegenerates(t *testing.T) {
	// An indirection handler stands in for a worker process: "restart"
	// swaps in a fresh Worker that has resolved no traces yet. It must
	// regenerate the trace from the cell spec and answer correctly, with
	// no help from the coordinator beyond the spec itself.
	var h atomic.Value
	h.Store(NewWorker(WorkerOptions{}).Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	coord, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := mustWorkload(t, "espresso")
	cfg := mustConfig(t, "A")
	if _, err := coord.ExecuteCell(context.Background(), w, cfg, 4, testScale, false); err != nil {
		t.Fatalf("first cell: %v", err)
	}

	restarted := NewWorker(WorkerOptions{})
	h.Store(restarted.Handler())

	got, err := coord.ExecuteCell(context.Background(), w, cfg, 8, testScale, false)
	if err != nil {
		t.Fatalf("post-restart cell: %v", err)
	}
	want := localCell(t, w, cfg, 8)
	if diff := want.Diff(got); len(diff) > 0 {
		t.Fatalf("post-restart result diverges: %v", diff)
	}
	if n := restarted.regens.Value(); n != 1 {
		t.Fatalf("restarted worker regenerated %d traces, want 1", n)
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Fatalf("local fallback used %d times across a restart, want 0", n)
	}
}

func TestLocalFallbackWhenNoWorkerHealthy(t *testing.T) {
	// A server that answers 500 to everything: transport-class failures
	// mark the worker unhealthy, and execution degrades to local.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	opts := testOpts()
	opts.FailThreshold = 1
	coord, err := New([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := mustWorkload(t, "compress")
	cfg := mustConfig(t, "B")
	got, err := coord.ExecuteCell(context.Background(), w, cfg, 4, testScale, false)
	if err != nil {
		t.Fatalf("ExecuteCell with dead worker: %v", err)
	}
	want := localCell(t, w, cfg, 4)
	if diff := want.Diff(got); len(diff) > 0 {
		t.Fatalf("fallback result diverges: %v", diff)
	}
	if n := coord.fallbacks.Value(); n == 0 {
		t.Fatal("no local fallback recorded with every worker dead")
	}
}

func TestTransportFailureFailsOverToHealthyPeer(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "chaos: worker killed", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	wk := NewWorker(WorkerOptions{})
	alive := httptest.NewServer(wk.Handler())
	defer alive.Close()

	opts := testOpts()
	opts.FailThreshold = 1
	coord, err := New([]string{dead.URL, alive.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Enough cells that some rendezvous-hash onto the dead worker; all
	// must still resolve, remotely or locally, matching local execution.
	w := mustWorkload(t, "li")
	for _, width := range []int{4, 8, 16} {
		for _, cfgName := range []string{"A", "C", "E"} {
			cfg := mustConfig(t, cfgName)
			got, err := coord.ExecuteCell(context.Background(), w, cfg, width, testScale, false)
			if err != nil {
				t.Fatalf("cell %s/w%d: %v", cfgName, width, err)
			}
			want := localCell(t, w, cfg, width)
			if diff := want.Diff(got); len(diff) > 0 {
				t.Fatalf("cell %s/w%d diverges: %v", cfgName, width, diff)
			}
		}
	}
	if n := wk.cells.With("computed").Value() + wk.cells.With("store_hit").Value(); n == 0 {
		t.Fatal("healthy peer computed nothing; failover never happened")
	}
}

func TestHedgeAccountingIdentityHoldsAfterClose(t *testing.T) {
	// Worker 0 is slow (but correct); worker 1 is fast. With an aggressive
	// hedge timer, stragglers get speculatively re-dispatched, and the
	// loser of each race must land in hedge_wasted — never in a result.
	slowWk := NewWorker(WorkerOptions{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cells" {
			time.Sleep(150 * time.Millisecond)
		}
		slowWk.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()
	fastWk := NewWorker(WorkerOptions{})
	fast := httptest.NewServer(fastWk.Handler())
	defer fast.Close()

	opts := testOpts()
	opts.HedgeAfter = 30 * time.Millisecond
	opts.BatchSize = 1
	coord, err := New([]string{slow.URL, fast.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}

	w := mustWorkload(t, "compress")
	for _, cfgName := range []string{"A", "B", "C", "D", "E"} {
		cfg := mustConfig(t, cfgName)
		got, err := coord.ExecuteCell(context.Background(), w, cfg, 4, testScale, false)
		if err != nil {
			t.Fatalf("cell %s: %v", cfgName, err)
		}
		want := localCell(t, w, cfg, 4)
		if diff := want.Diff(got); len(diff) > 0 {
			t.Fatalf("cell %s diverges under hedging: %v", cfgName, diff)
		}
	}

	coord.Close() // waits out in-flight sends: identity must hold exactly
	for _, n := range coord.Workers() {
		d := coord.dispatched.With(n).Value()
		sum := coord.completed.With(n).Value() + coord.failed.With(n).Value() + coord.hedgeWasted.With(n).Value()
		if d != sum {
			t.Errorf("%s: dispatched %d != completed+failed+hedge_wasted %d", n, d, sum)
		}
	}
	if coord.hedges.Value() == 0 {
		t.Fatal("hedge timer never fired against a 150ms-slow worker")
	}
}

func TestPermanentRemoteErrorSurfacesWithoutRetryOrFallback(t *testing.T) {
	// A worker that always answers a permanent failure: the coordinator
	// must hand it straight to the caller — no re-dispatch, no fallback.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"outcomes":[{"error":{"kind":"invariant","message":"scoreboard out of sync"}}]}`))
	}))
	defer ts.Close()

	opts := testOpts()
	opts.BatchSize = 1
	coord, err := New([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := mustWorkload(t, "compress")
	_, err = coord.ExecuteCell(context.Background(), w, mustConfig(t, "A"), 4, testScale, false)
	re, ok := err.(*failure.Error)
	if !ok {
		t.Fatalf("want *failure.Error, got %T: %v", err, err)
	}
	if re.Kind != failure.Invariant || failure.Of(err) != failure.Invariant {
		t.Fatalf("want the invariant kind, got %q", re.Kind)
	}
	if err.Error() != "scoreboard out of sync" {
		t.Fatalf("remote error renders %q, want the worker's message alone", err.Error())
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("permanent failure was dispatched %d times, want 1", n)
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Fatalf("permanent failure fell back locally %d times", n)
	}
}

func TestRunnerWithExecutorRendersIdenticalReport(t *testing.T) {
	// The executor seam end-to-end: the same experiment rendered through a
	// cluster-backed runner must be byte-identical to the local runner's.
	wk := NewWorker(WorkerOptions{})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()

	coord, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	local := experiments.NewRunner(testScale)
	local.Widths = []int{4, 8}
	remote := experiments.NewRunner(testScale).WithExecutor(coord)
	remote.Widths = []int{4, 8}

	set := workloads.PointerChasingSet()
	lr, err := experiments.FigureIPC(local, "fig4", set)
	if err != nil {
		t.Fatalf("local FigureIPC: %v", err)
	}
	rr, err := experiments.FigureIPC(remote, "fig4", set)
	if err != nil {
		t.Fatalf("remote FigureIPC: %v", err)
	}
	if lr.Text != rr.Text {
		t.Fatalf("reports diverge:\n--- local ---\n%s\n--- remote ---\n%s", lr.Text, rr.Text)
	}
	if computed := wk.cells.With("computed").Value(); computed == 0 {
		t.Fatal("remote runner computed nothing on the worker")
	}

	// A degraded report too: an invariant violation injected into the first
	// cell each runner simulates (one worker each, so the same cell) must
	// render the same bytes, failure summary included, wherever it ran.
	defer faultinject.Reset()
	perBench := func(r *experiments.Runner) string {
		faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
			return &core.InvariantError{Invariant: "injected", Detail: "conformance"}
		}, 0)
		rep, err := experiments.PerBenchmarkReport(r.WithWorkers(1), 4)
		if err != nil {
			t.Fatalf("PerBenchmarkReport: %v", err)
		}
		if len(rep.Errs) != 1 || failure.Of(rep.Errs[0]) != failure.Invariant {
			t.Fatalf("want one invariant failure, got %v", rep.Errs)
		}
		return rep.Text
	}
	lt := perBench(experiments.NewRunner(testScale))
	rt := perBench(experiments.NewRunner(testScale).WithExecutor(coord))
	if lt != rt {
		t.Fatalf("degraded reports diverge:\n--- local ---\n%s\n--- remote ---\n%s", lt, rt)
	}
	if strings.Count(lt, failure.Invariant.Cell()) != 1 {
		t.Fatalf("want exactly one %q cell:\n%s", failure.Invariant.Cell(), lt)
	}
}

// TestPanickingCellRunsOnceThroughCluster: a cell that panics wherever it
// runs is a permanent failure like any other. Through three workers it
// runs once, is neither re-dispatched nor run by the local fallback, and
// comes back to the caller with the panic kind.
func TestPanickingCellRunsOnceThroughCluster(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	coord, err := New(urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	defer faultinject.Reset()
	faultinject.ArmFunc(faultinject.PointCoreRun, func() error { panic("injected cell panic") }, 0)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic escaped ExecuteCell: %v", r)
			}
		}()
		_, err = coord.ExecuteCell(context.Background(), mustWorkload(t, "compress"), mustConfig(t, "A"), 4, testScale, false)
	}()
	if k := failure.Of(err); k != failure.Panic {
		t.Errorf("kind %q (%v), want %q", k, err, failure.Panic)
	}
	if n := faultinject.Fired(faultinject.PointCoreRun); n != 1 {
		t.Errorf("the cell ran %d times, want 1", n)
	}
	if n := coord.retriesCtr.Value(); n != 0 {
		t.Errorf("cluster_retries_total = %d, want 0", n)
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Errorf("cluster_local_fallback_total = %d, want 0", n)
	}

	// With no worker reachable the local fallback runs the cell, and its
	// panic comes back the same way instead of escaping ExecuteCell.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	lone, err := New([]string{dead.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic escaped the local fallback: %v", r)
			}
		}()
		_, err = lone.ExecuteCell(context.Background(), mustWorkload(t, "compress"), mustConfig(t, "A"), 4, testScale, false)
	}()
	if k := failure.Of(err); k != failure.Panic || lone.fallbacks.Value() != 1 {
		t.Errorf("fallback: kind %q (%v), %d fallbacks; want %q after one", k, err, lone.fallbacks.Value(), failure.Panic)
	}
}

// TestCallerCancellationIsNotARetry: a caller that gives up on its cell
// while the cell is dispatched ends the dispatch; that is not a failure
// of the worker, so the coordinator must not count a re-dispatch.
func TestCallerCancellationIsNotARetry(t *testing.T) {
	ts := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	defer ts.Close()
	coord, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faultinject.Reset()
	// The worker cancels the caller from inside the simulation: the
	// cell is mid-dispatch when the caller's context ends.
	faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error { cancel(); return nil }, 0)
	_, err = coord.ExecuteCell(ctx, mustWorkload(t, "compress"), mustConfig(t, "A"), 4, testScale, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the caller's context.Canceled", err)
	}
	if n := coord.retriesCtr.Value(); n != 0 {
		t.Errorf("cluster_retries_total = %d, want 0", n)
	}
	if n := coord.dispatched.With("w0").Value(); n != 1 {
		t.Errorf("cluster_dispatched_total = %d, want 1", n)
	}
	// Let the worker finish the abandoned cell before the server closes.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s := coord.StatusAll()[0]
		if s.Dispatched == s.Completed+s.Failed+s.HedgeWasted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the dispatch never settled")
		}
	}
}
