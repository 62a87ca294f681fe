package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/workloads"
)

// TestCellDeadlineDegradesOneCell: a cell that overruns Runner.CellTimeout
// fails with ErrCellDeadline — permanent (no retry), cached, and NOT a
// cancellation — while other cells of the same sweep proceed normally.
func TestCellDeadlineDegradesOneCell(t *testing.T) {
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0)
	r.CellTimeout = 50 * time.Millisecond
	r.Retries = 2 // must NOT be consumed: deadline failures are permanent

	// Wedge exactly the first cell: the injected fn sleeps well past the
	// cell deadline, then lets the run continue into the expired context.
	faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
		time.Sleep(400 * time.Millisecond)
		return nil
	}, 0)
	defer faultinject.Reset()

	_, err = r.Result(w, core.ConfigA, 4)
	if !errors.Is(err, ErrCellDeadline) {
		t.Fatalf("err = %v, want ErrCellDeadline", err)
	}
	if failure.Ended(err) {
		t.Fatalf("cell deadline misclassified as sweep cancellation: %v", err)
	}
	if strings.Contains(err.Error(), "attempts") {
		t.Fatalf("deadline failure was retried: %v", err)
	}
	if got := r.ComputeCalls(); got != 1 {
		t.Fatalf("ComputeCalls = %d, want 1 (no retry, no recompute)", got)
	}

	// The deadline failure is cached: a re-query fails fast.
	if _, err2 := r.Result(w, core.ConfigA, 4); !errors.Is(err2, ErrCellDeadline) {
		t.Fatalf("cached re-query: err = %v, want ErrCellDeadline", err2)
	}
	if got := r.ComputeCalls(); got != 1 {
		t.Fatalf("cached re-query recomputed: ComputeCalls = %d", got)
	}

	// Other cells of the sweep are unaffected. (The deadline is lifted
	// first so a race-slowed CI runner cannot deadline a healthy sibling;
	// the poisoned cell stays poisoned through the cache.)
	r.CellTimeout = 0
	if _, err := r.Result(w, core.ConfigB, 4); err != nil {
		t.Fatalf("sibling cell failed: %v", err)
	}
}

// TestCellDeadlineRendersInReport: a deadlined cell renders as
// "n/a (deadline)" in the per-benchmark report instead of plain "n/a".
func TestCellDeadlineRendersInReport(t *testing.T) {
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0)
	r.CellTimeout = 50 * time.Millisecond
	faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
		time.Sleep(400 * time.Millisecond)
		return nil
	}, 0)
	defer faultinject.Reset()

	if _, err := r.Result(w, core.ConfigA, 4); !errors.Is(err, ErrCellDeadline) {
		t.Fatalf("seeding the deadline cell: err = %v", err)
	}
	// Disable the deadline for the remaining (healthy) cells so a slow CI
	// runner cannot deadline them legitimately; the poisoned cell stays
	// poisoned through the Runner cache.
	r.CellTimeout = 0

	rep, err := PerBenchmarkReport(r, 4)
	if err != nil {
		t.Fatalf("PerBenchmarkReport: %v", err)
	}
	if !strings.Contains(rep.Text, "n/a (deadline)") {
		t.Fatalf("report lacks the deadline marker:\n%s", rep.Text)
	}
	if !rep.Degraded() {
		t.Fatal("report with a deadlined cell must be degraded")
	}
}

// TestResultCtxDeadlineIsNotCached: a deadline on the *caller's* context
// (a per-job deadline in the serving layer) is a cancellation of that call
// only — it is not cached, so a later call with a live context succeeds.
func TestResultCtxDeadlineIsNotCached(t *testing.T) {
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0)
	// Generate the trace first so the expiring context below bounds only
	// the simulation, deterministically.
	if _, _, err := w.TraceCachedCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := r.ResultCtx(ctx, w, core.ConfigA, 4); !failure.Ended(err) {
		t.Fatalf("expired caller context: err = %v, want cancellation", err)
	}
	if _, err := r.ResultCtx(context.Background(), w, core.ConfigA, 4); err != nil {
		t.Fatalf("live-context retry after expired call failed: %v", err)
	}
}
