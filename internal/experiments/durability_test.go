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
	"repro/internal/store"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

// TestCrashResumeFromStore is the durability acceptance test: a sweep
// killed after k cells resumes from the store, recomputes only the
// remaining cells, and produces a report byte-for-byte identical to an
// uninterrupted run.
func TestCrashResumeFromStore(t *testing.T) {
	set := workloads.All()[:2]
	widths := []int{4, 8}
	const total = 2 * 5 * 2 // workloads x configs A-E x widths
	const killAfter = 7

	// Reference: uninterrupted, storeless run.
	r0 := NewRunner(60)
	r0.Widths = widths
	ref, err := FigureIPC(r0, "figure2", set)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ref.Degraded() {
		t.Fatalf("reference run degraded: %v", ref.Errs)
	}

	// Interrupted run: cancel the context the moment the 7th cell lands.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r1, err := NewRunner(60).WithStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1.WithContext(ctx).WithWorkers(1)
	r1.Widths = widths
	r1.OnCellDone = func(done int) {
		if done == killAfter {
			cancel()
		}
	}
	if _, err := FigureIPC(r1, "figure2", set); !failure.Ended(err) {
		t.Fatalf("interrupted run: err = %v, want cancellation", err)
	}
	if got := r1.ComputeCalls(); got != killAfter {
		t.Fatalf("interrupted run computed %d cells, want %d", got, killAfter)
	}
	st := r1.StoreStats()
	if st.Writes != killAfter || st.WriteErrors != 0 {
		t.Fatalf("interrupted run store stats %+v, want %d writes", st, killAfter)
	}

	// Resume: a fresh Runner (fresh memory cache, fresh process in spirit)
	// over the same store directory must serve the completed cells from
	// disk and compute only the remainder.
	r2, err := NewRunner(60).WithStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2.WithWorkers(1)
	r2.Widths = widths
	resumed, err := FigureIPC(r2, "figure2", set)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := r2.ComputeCalls(); got != total-killAfter {
		t.Fatalf("resumed run computed %d cells, want %d", got, total-killAfter)
	}
	st = r2.StoreStats()
	if st.Hits != killAfter {
		t.Fatalf("resumed run store hits = %d, want %d (stats %+v)", st.Hits, killAfter, st)
	}
	if st.Corrupt != 0 {
		t.Fatalf("resumed run hit corrupt entries: %+v", st)
	}
	if resumed.Text != ref.Text {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", resumed.Text, ref.Text)
	}
	if resumed.CSV != ref.CSV {
		t.Fatalf("resumed CSV differs from uninterrupted run")
	}
}

// TestStoreHitsSkipSimulation: a second Runner over a warm store performs
// zero computations.
func TestStoreHitsSkipSimulation(t *testing.T) {
	dir := t.TempDir()
	w := workloads.All()[0]

	r1, err := NewRunner(60).WithStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r1.Result(w, core.ConfigD, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ComputeCalls() != 1 {
		t.Fatalf("cold run ComputeCalls = %d, want 1", r1.ComputeCalls())
	}

	r2, err := NewRunner(60).WithStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Result(w, core.ConfigD, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ComputeCalls() != 0 {
		t.Fatalf("warm run ComputeCalls = %d, want 0", r2.ComputeCalls())
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Fatalf("stored result differs: %+v vs %+v", got, want)
	}
	// The ablation sibling shares name "D" but not a fingerprint: it must
	// miss the store and compute.
	ablated := core.ConfigD
	ablated.PairsOnly = true
	ares, err := r2.Result(w, ablated, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ComputeCalls() != 1 {
		t.Fatalf("ablated sibling served from store: ComputeCalls = %d, want 1", r2.ComputeCalls())
	}
	if ares.CollapsedInstrs == got.CollapsedInstrs {
		t.Fatalf("ablated sibling produced identical collapse count %d; cache keys may have collided", ares.CollapsedInstrs)
	}
}

// TestTransientCellRetried: a fault that fires once is healed by the retry
// layer; a persistent one exhausts the budget and reports its attempt
// count in the cell error.
func TestTransientCellRetried(t *testing.T) {
	defer faultinject.Reset()
	w := workloads.All()[0]

	faultinject.ArmOnce(faultinject.PointExperiment, errors.New("transient glitch"), 0)
	r := NewRunner(60)
	r.Retries = 2
	r.RetryDelay = time.Millisecond
	if _, err := r.Result(w, core.ConfigA, 4); err != nil {
		t.Fatalf("transient fault not healed by retry: %v", err)
	}
	if fired := faultinject.Fired(faultinject.PointExperiment); fired != 1 {
		t.Fatalf("fault fired %d times, want 1", fired)
	}

	faultinject.Reset()
	faultinject.Arm(faultinject.PointExperiment, errors.New("persistent glitch"), 0)
	r2 := NewRunner(60)
	r2.Retries = 2
	r2.RetryDelay = time.Millisecond
	_, err := r2.Result(w, core.ConfigA, 4)
	if err == nil {
		t.Fatal("persistent fault healed without the point standing down")
	}
	if !strings.Contains(err.Error(), "(3 attempts)") {
		t.Fatalf("cell error does not report its attempt count: %v", err)
	}
}

// TestWatchdogReapsStalledCell is the supervision acceptance test: one
// cell wedges mid-simulation (its fault-point fn blocks, so heartbeats
// stop), the watchdog reaps it as stalled, every other cell completes, and
// the report renders the reaped cell as "n/a (stalled)".
func TestWatchdogReapsStalledCell(t *testing.T) {
	defer faultinject.Reset()
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) })
	faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
		<-unblock // wedge: no heartbeats, ignores cancellation
		return nil
	}, 500)

	r := NewRunner(60).WithWorkers(1)
	r.Widths = []int{8}
	r.StallTimeout = 100 * time.Millisecond
	rep, err := PerBenchmarkReport(r, 8)
	if err != nil {
		t.Fatalf("stall aborted the whole experiment: %v", err)
	}
	if !rep.Degraded() {
		t.Fatal("report with a reaped cell not marked degraded")
	}
	if len(rep.Errs) != 1 {
		t.Fatalf("%d cell failures, want exactly the stalled one: %v", len(rep.Errs), rep.Errs)
	}
	if !errors.Is(rep.Errs[0], watchdog.ErrStalled) {
		t.Fatalf("cell failure is not classified as a stall: %v", rep.Errs[0])
	}
	if failure.Ended(rep.Errs[0]) {
		t.Fatalf("stall misclassified as cancellation: %v", rep.Errs[0])
	}
	if !strings.Contains(rep.Text, "n/a (stalled)") {
		t.Fatalf("report does not render the reaped cell as stalled:\n%s", rep.Text)
	}
	if strings.Count(rep.Text, "n/a (stalled)") != 1 {
		t.Fatalf("expected exactly one stalled cell:\n%s", rep.Text)
	}
}

// TestStallThatRecoversFailsOneCell: one cell's back end sleeps past the
// stall deadline but wakes within the watchdog's grace period, so its bank
// stops on the cancellation instead of being abandoned. The cell that was
// running fails as stalled; its bank-mates, stopped by the same
// cancellation, re-run and succeed, and the sweep goes on.
func TestStallThatRecoversFailsOneCell(t *testing.T) {
	defer faultinject.Reset()
	r := NewRunner(60).WithWorkers(1)
	r.Widths = []int{8}
	r.StallTimeout = 100 * time.Millisecond
	r.OnCellDone = func(done int) {
		if done == 1 {
			// Armed inside the sweep, where no goroutine an earlier test
			// abandoned can still reach the fault point.
			faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
				time.Sleep(150 * time.Millisecond) // noticed at ~100ms; the grace ends at ~200ms
				return nil
			}, 500)
		}
	}
	rep, err := PerBenchmarkReport(r, 8)
	if err != nil {
		t.Fatalf("a recovered stall aborted the whole experiment: %v", err)
	}
	if len(rep.Errs) != 1 {
		t.Fatalf("%d cell failures, want exactly the stalled one: %v", len(rep.Errs), rep.Errs)
	}
	if !errors.Is(rep.Errs[0], watchdog.ErrStalled) || failure.Ended(rep.Errs[0]) {
		t.Fatalf("cell failure is not a stall: %v", rep.Errs[0])
	}
	if strings.Count(rep.Text, "n/a (stalled)") != 1 {
		t.Fatalf("expected exactly one stalled cell:\n%s", rep.Text)
	}
}

// TestPrefetchWithWorkersRace exercises the configurable worker pool with
// a shared store under the race detector: concurrent cells hashing the
// same trace and writing distinct entries must be clean.
func TestPrefetchWithWorkersRace(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(60).WithStoreHandle(st)
	r.WithWorkers(4)
	set := workloads.All()[:2]
	cfgs := []core.Config{core.ConfigA, core.ConfigD}
	if err := r.Prefetch(set, cfgs, []int{4, 8}); err != nil {
		t.Fatalf("Prefetch: %v", err)
	}
	if got := r.ComputeCalls(); got != 8 {
		t.Fatalf("ComputeCalls = %d, want 8", got)
	}
	if n, err := st.Len(); err != nil || n != 8 {
		t.Fatalf("store Len = %d, %v; want 8", n, err)
	}
	for _, w := range set {
		for _, cfg := range cfgs {
			for _, width := range []int{4, 8} {
				if _, err := r.Result(w, cfg, width); err != nil {
					t.Errorf("%s/%s/%d: %v", w.Name, cfg.Name, width, err)
				}
			}
		}
	}
	if got := r.ComputeCalls(); got != 8 {
		t.Fatalf("re-query recomputed: ComputeCalls = %d, want 8", got)
	}
}
