package experiments

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestPrefetchOpensTraceOncePerSubBank: under regeneration every trace
// open re-runs the VM, so the opens are what a sweep pays per workload.
// A Prefetch generates each trace once and then opens it once per
// sub-bank. Workload i's 25 cells over a trace of r_i records get
// k_i = min(25, max(1, ceil(workers*r_i*25 / sum_j r_j*25))) sub-banks:
// one workload on w workers costs 1 + min(w, 25) generation passes, and
// several workloads split the pool by their share of the work, so a trace
// ten times longer than another gets the larger share.
func TestPrefetchOpensTraceOncePerSubBank(t *testing.T) {
	defer faultinject.Reset()
	defer workloads.FlushCache()
	const scale = 5
	all := workloads.All()
	records := map[string]int64{}
	for _, w := range all {
		buf, _, err := w.TraceCachedCtx(context.Background(), scale)
		if err != nil {
			t.Fatal(err)
		}
		records[w.Name] = int64(buf.Len())
	}
	t.Logf("records at scale %d: %v", scale, records)
	// passes restates the split rule: 1 + k_i passes per workload.
	passes := func(set []*workloads.Workload, workers int) (n int64, ks []int64) {
		var sum int64
		for _, w := range set {
			sum += records[w.Name]
		}
		for _, w := range set {
			k := min(25, max(1, (int64(workers)*records[w.Name]+sum-1)/sum))
			ks = append(ks, k)
			n += 1 + k
		}
		return n, ks
	}
	// Traces about 10x apart in length (557 and 5,310 records at scale 5).
	mixed := []*workloads.Workload{mustByName(t, "compress"), mustByName(t, "li")}
	for _, tc := range []struct {
		set     []*workloads.Workload
		workers int
		want    int64 // 0: the rule's
	}{
		{all[:1], 1, 1 + 1},
		{all[:1], 2, 1 + 2},
		{all[:1], 32, 1 + 25},
		{all[:2], 32, 0},
		{all, 1, 6 * (1 + 1)},
		{all, 2, 0},
		{all, 32, 0},
		{mixed, 2, 0},
	} {
		want, ks := passes(tc.set, tc.workers)
		if tc.want != 0 && tc.want != want {
			t.Fatalf("%d workloads on %d workers: the rule gives %d passes, the row says %d", len(tc.set), tc.workers, want, tc.want)
		}
		t.Logf("%d workloads on %d workers: sub-banks %v", len(tc.set), tc.workers, ks)
		workloads.FlushCache()
		faultinject.Reset()
		faultinject.ArmFunc(faultinject.PointTraceGen, func() error { return nil }, 0)
		r := NewRunner(scale).WithMaxTraceMem(1).WithWorkers(tc.workers)
		if err := r.Prefetch(tc.set, core.Configs(), core.Widths); err != nil {
			t.Fatalf("%d workloads on %d workers: %v", len(tc.set), tc.workers, err)
		}
		if got := faultinject.Fired(faultinject.PointTraceGen); got != want {
			t.Errorf("%d workloads on %d workers: %d generation passes, want %d", len(tc.set), tc.workers, got, want)
		}
	}
	if r := records["li"] / records["compress"]; r < 5 || r > 20 {
		t.Errorf("li's trace is %dx compress's at scale %d; the mixed row wants about 10x", r, scale)
	}
}

func mustByName(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBankedCellsBookOnceAndSumToTheBank: one workload's 25 cells on one
// worker run as one bank. Every cell books exactly one perf record (with
// its instructions), one computed outcome, one cell-seconds observation,
// one compute call and one done callback, and the cells' attributed
// seconds sum to the bank's measured time.
func TestBankedCellsBookOnceAndSumToTheBank(t *testing.T) {
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	tr := metrics.NewTrace("bank")
	col := &perf.Collector{}
	var done int
	r := NewRunner(200).WithWorkers(1).WithPerf(col).WithMetrics(NewRunnerMetrics(reg, "test")).
		WithContext(metrics.WithTrace(context.Background(), tr))
	r.OnCellDone = func(int, int) { done++ }
	if err := r.Prefetch([]*workloads.Workload{w}, core.Configs(), core.Widths); err != nil {
		t.Fatal(err)
	}
	const cells = 25
	var sum float64
	for _, c := range col.Cells() {
		if c.Instructions <= 0 || c.Seconds <= 0 {
			t.Errorf("%s/%s/w%d: %d instructions in %g s", c.Workload, c.Config, c.Width, c.Instructions, c.Seconds)
		}
		sum += c.Seconds
	}
	outcomes := reg.CounterVec("runner_cells_total", "", "mode", "outcome")
	hist := reg.HistogramVec("runner_cell_seconds", "", nil, "mode").With("test")
	if n := len(col.Cells()); n != cells {
		t.Errorf("%d perf records, want %d", n, cells)
	}
	if n := outcomes.With("test", "computed").Value(); n != cells {
		t.Errorf("%d computed outcomes, want %d", n, cells)
	}
	if n := hist.Count(); n != cells {
		t.Errorf("%d cell-seconds observations, want %d", n, cells)
	}
	if n := r.ComputeCalls(); n != cells {
		t.Errorf("ComputeCalls = %d, want %d", n, cells)
	}
	if done != cells {
		t.Errorf("OnCellDone called %d times, want %d", done, cells)
	}

	var banks, bankUS int64
	for _, s := range tr.Doc().Spans {
		if s.Name == "simulate" {
			banks++
			bankUS += s.DurUS
		}
	}
	if banks != 1 {
		t.Fatalf("%d simulate spans, want one bank", banks)
	}
	bank := float64(bankUS) / 1e6
	t.Logf("cells sum to %.6f s, the bank took %.6f s", sum, bank)
	if sum > bank+1e-6 || sum < 0.99*bank {
		t.Errorf("cells sum to %.6f s, not within 1%% of the bank's %.6f s", sum, bank)
	}
}

// cellExecutor is an Executor with ExecuteCell alone: it runs each cell on
// its own and counts the calls.
type cellExecutor struct{ calls atomic.Int64 }

func (e *cellExecutor) ExecuteCell(ctx context.Context, w *workloads.Workload, cfg core.Config, width, scale int, selfCheck bool) (*core.Result, error) {
	e.calls.Add(1)
	prov, err := w.Provider(ctx, scale, workloads.ProviderOptions{})
	if err != nil {
		return nil, err
	}
	src, err := prov.Open()
	if err != nil {
		return nil, err
	}
	defer trace.CloseSource(src)
	return core.RunChecked(ctx, src, cfg, core.Params{Width: width, SelfCheck: selfCheck})
}

// TestCellExecutorGetsEachCell: an Executor that runs no banks gets the
// cells of each sub-bank one call at a time, and the report is the local
// Runner's.
func TestCellExecutorGetsEachCell(t *testing.T) {
	exec := &cellExecutor{}
	set := workloads.PointerChasingSet()
	local, err := FigureIPC(NewRunner(10).WithWorkers(2), "figure4", set)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := FigureIPC(NewRunner(10).WithWorkers(2).WithExecutor(exec), "figure4", set)
	if err != nil {
		t.Fatal(err)
	}
	if local.Text != remote.Text {
		t.Fatalf("reports diverge:\n--- local ---\n%s\n--- per cell ---\n%s", local.Text, remote.Text)
	}
	if n, want := exec.calls.Load(), int64(len(set)*len(core.Configs())*len(core.Widths)); n != want {
		t.Errorf("%d ExecuteCell calls, want one per cell (%d)", n, want)
	}
}
