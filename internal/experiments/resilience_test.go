package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/workloads"
)

// TestSelfCheckAllWorkloadsConfigD is the acceptance run: every workload
// under config D at width 8 with invariant sweeps enabled, zero violations.
func TestSelfCheckAllWorkloadsConfigD(t *testing.T) {
	r := NewRunner(60)
	r.SelfCheck = true
	for _, w := range workloads.All() {
		res, err := r.Result(w, core.ConfigD, 8)
		if err != nil {
			t.Fatalf("%s: self-checked run failed: %v", w.Name, err)
		}
		if res.SelfChecks == 0 {
			t.Fatalf("%s: no invariant sweeps ran", w.Name)
		}
	}
}

// TestExperimentsDegradeGracefully arms the experiment injection point so
// every cell fails, and asserts the registry still renders every report —
// with n/a cells and a failure summary — instead of aborting.
func TestExperimentsDegradeGracefully(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("synthetic cell failure")
	faultinject.Arm(faultinject.PointExperiment, boom, 0)

	r := NewRunner(60)
	r.Widths = []int{4}
	for _, e := range Registry() {
		rep, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: degraded experiment aborted: %v", e.ID, err)
		}
		switch e.ID {
		case "table1", "table2":
			// Trace-level experiments don't consult the experiment point;
			// they may or may not degrade here.
		default:
			if !rep.Degraded() {
				t.Errorf("%s: report not marked degraded", e.ID)
			}
			if !strings.Contains(rep.Text, "failure(s)") {
				t.Errorf("%s: degraded report missing failure summary", e.ID)
			}
			// Signature tables (5-6) degrade to empty row sets rather than
			// n/a cells; every other simulation experiment must render n/a.
			if e.ID != "table5" && e.ID != "table6" && !strings.Contains(rep.Text, "n/a") {
				t.Errorf("%s: no n/a cells in degraded report:\n%s", e.ID, rep.Text)
			}
		}
	}
}

// TestPartialDegradation fails only a late cell and checks the surviving
// cells still carry real data.
func TestPartialDegradation(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("one bad cell")
	// Let a handful of cells through, then fail exactly one.
	faultinject.ArmOnce(faultinject.PointExperiment, boom, 3)

	r := NewRunner(60)
	r.Widths = []int{4}
	d, err := Performance(r, workloads.All())
	if err != nil {
		t.Fatalf("partially degraded Performance aborted: %v", err)
	}
	if len(d.Errs) == 0 {
		t.Fatal("no cell failure recorded")
	}
	if !errors.Is(d.Errs[0], boom) {
		t.Fatalf("recorded error %v does not wrap the injected one", d.Errs[0])
	}
	// The harmonic means must still be finite: only one benchmark cell
	// failed, the rest of the set survives.
	for _, cfg := range core.Configs() {
		v := d.IPC[cfg.Name][4]
		if v != v { // NaN
			t.Errorf("config %s: mean IPC is NaN despite surviving benchmarks", cfg.Name)
		}
	}
}

// TestPrefetchAggregatesFailures verifies Prefetch reports every failed
// cell (errors.Join), not just the first one.
func TestPrefetchAggregatesFailures(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("cell down")
	faultinject.Arm(faultinject.PointExperiment, boom, 0)

	r := NewRunner(60)
	err := r.Prefetch(workloads.All()[:2], []core.Config{core.ConfigA, core.ConfigD}, []int{4, 16})
	if err == nil {
		t.Fatal("Prefetch succeeded despite armed injection point")
	}
	// 2 workloads x 2 configs x 2 widths = 8 failed cells.
	if n := strings.Count(err.Error(), "cell down"); n != 8 {
		t.Fatalf("aggregated error names %d cells, want 8:\n%v", n, err)
	}
}

// TestRunnerCancellationIsFatal verifies cancellation aborts experiments
// rather than degrading cells, and leaves the cache clean for retry.
func TestRunnerCancellationIsFatal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(60).WithContext(ctx)
	r.Widths = []int{4}
	w := workloads.All()[0]
	if _, err := r.Result(w, core.ConfigA, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
	if _, err := Performance(r, workloads.All()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Performance err = %v, want context.Canceled", err)
	}

	// A canceled run must not be cached: the same Runner with a live
	// context succeeds afterwards.
	r.WithContext(context.Background())
	if _, err := r.Result(w, core.ConfigA, 4); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// TestTraceGenFailureDegradesOnce verifies a broken workload trace shows up
// as one aggregated failure, not one per (config, width) cell.
func TestTraceGenFailureDegradesOnce(t *testing.T) {
	defer faultinject.Reset()
	defer workloads.FlushCache()
	boom := errors.New("generator down")
	faultinject.Arm(faultinject.PointTraceGen, boom, 0)

	r := NewRunner(61) // unusual scale: must miss the shared trace cache
	r.Widths = []int{4}
	rows, errs, err := Table1Data(r)
	if err != nil {
		t.Fatalf("Table1Data aborted: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("%d rows built despite failed generation", len(rows))
	}
	if len(errs) != len(workloads.All()) {
		t.Fatalf("%d errors, want one per workload (%d)", len(errs), len(workloads.All()))
	}
	for _, e := range errs {
		if !errors.Is(e, boom) {
			t.Fatalf("error %v does not wrap the injected fault", e)
		}
	}
}

// TestMaxTraceMemSurvivesCanceledCaller: under a one-byte trace budget
// every trace is served by regeneration. Canceling the context of the call
// that first generated the trace must not break later cells: the
// regenerator must not capture the creating call's context.
func TestMaxTraceMemSurvivesCanceledCaller(t *testing.T) {
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0).WithMaxTraceMem(1)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := r.ResultCtx(ctx, w, core.ConfigA, 4); err != nil {
		t.Fatalf("first cell: %v", err)
	}
	cancel()

	got, err := r.ResultCtx(context.Background(), w, core.ConfigD, 4)
	if err != nil {
		t.Fatalf("second cell after the first call's context was canceled: %v", err)
	}
	buf, _, err := w.TraceCached(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunChecked(context.Background(), buf.Reader(), core.ConfigD, core.Params{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); len(d) > 0 {
		t.Fatalf("regenerated cell diverges from the buffered trace: %v", d)
	}
}
