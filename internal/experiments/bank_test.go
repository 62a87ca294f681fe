package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/workloads"
)

// TestPrefetchOpensTraceOncePerSubBank: under regeneration every trace
// open re-runs the VM, so the opens are what a sweep pays per workload.
// A Prefetch generates each trace once and then opens it once per
// sub-bank. Each workload's 25 cells get its share of the workers,
// ceil(workers*25/N) sub-banks of N cells in all, at most 25: one
// workload on w workers costs 1 + min(w, 25) generation passes, and
// several workloads split the pool instead of each taking all of it.
func TestPrefetchOpensTraceOncePerSubBank(t *testing.T) {
	defer faultinject.Reset()
	defer workloads.FlushCache()
	all := workloads.All()
	for _, tc := range []struct {
		workloads, workers int
		passes             int64 // per workload
	}{
		{1, 1, 1 + 1},
		{1, 2, 1 + 2},
		{1, 32, 1 + 25},
		{2, 32, 1 + 16},
		{6, 2, 1 + 1},
		{6, 32, 1 + 6},
	} {
		workloads.FlushCache()
		faultinject.Reset()
		faultinject.ArmFunc(faultinject.PointTraceGen, func() error { return nil }, 0)
		r := NewRunner(5).WithMaxTraceMem(1).WithWorkers(tc.workers)
		if err := r.Prefetch(all[:tc.workloads], core.Configs(), core.Widths); err != nil {
			t.Fatalf("%d workloads on %d workers: %v", tc.workloads, tc.workers, err)
		}
		if got, want := faultinject.Fired(faultinject.PointTraceGen), int64(tc.workloads)*tc.passes; got != want {
			t.Errorf("%d workloads on %d workers: %d generation passes, want %d", tc.workloads, tc.workers, got, want)
		}
	}
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
	r.OnCellDone = func(int) { done++ }
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
