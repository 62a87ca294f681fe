package cluster

// Tests for the bank as the unit the cluster ships: a Runner's sub-banks
// travel one request each, failures stay with their cells, a canceled
// caller frees the worker, and a remote bank's cells book the call's time.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/workloads"
)

// TestRunnerShipsBanksNotCells: a two-worker Runner over two one-slot
// workers renders every registry experiment byte-identical to a local
// Runner, and sends one request per sub-bank its Prefetch forms.
func TestRunnerShipsBanksNotCells(t *testing.T) {
	const scale = 10
	var wks [2]*Worker
	var urls []string
	for i := range wks {
		wks[i] = NewWorker(WorkerOptions{MaxConcurrent: 1})
		ts := httptest.NewServer(wks[i].Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	coord, err := New(urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	local := experiments.NewRunner(scale).WithWorkers(2)
	remote := experiments.NewRunner(scale).WithWorkers(2).WithExecutor(coord)
	for _, e := range experiments.Registry() {
		lr, err := e.Run(local)
		if err != nil {
			t.Fatalf("local %s: %v", e.ID, err)
		}
		rr, err := e.Run(remote)
		if err != nil {
			t.Fatalf("remote %s: %v", e.ID, err)
		}
		if lr.Text != rr.Text || lr.CSV != rr.CSV {
			t.Fatalf("%s diverges:\n--- local ---\n%s\n--- remote ---\n%s", e.ID, lr.Text, rr.Text)
		}
	}

	// The sweep's 25 cells per workload split into sub-banks by the
	// workloads' shares of the work: k_i = max(1, ceil(2*r_i / sum r)).
	var records []int64
	var sum int64
	for _, w := range workloads.All() {
		buf, _, err := w.TraceCachedCtx(context.Background(), scale)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, int64(buf.Len()))
		sum += int64(buf.Len())
	}
	var banks int64
	for _, r := range records {
		banks += max(1, (2*r+sum-1)/sum)
	}
	var requests int64
	for i, wk := range wks {
		requests += wk.batches.Value()
		if wk.cells.With("computed").Value() == 0 {
			t.Errorf("worker %d computed no cells", i)
		}
	}
	if requests != banks {
		t.Errorf("the workers received %d requests for the %d sub-banks Prefetch formed", requests, banks)
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Errorf("local fallback ran %d cells on a healthy cluster", n)
	}
}

// bankCells is the first n cells of a workload's paper grid at width 4.
func bankCells(n int) []core.Cell {
	var cells []core.Cell
	for _, cfg := range core.Configs()[:n] {
		cells = append(cells, core.Cell{Config: cfg, Params: core.Params{Width: 4}})
	}
	return cells
}

// recordingWorker serves a real Worker and records each bank request's
// cell count; edit, when set, rewrites the outcomes of the first request.
func recordingWorker(t *testing.T, edit func([]CellOutcome)) (*httptest.Server, func() []int) {
	t.Helper()
	wk := NewWorker(WorkerOptions{})
	var mu sync.Mutex
	var sizes []int
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cells" {
			wk.Handler().ServeHTTP(rw, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req bankRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		sizes = append(sizes, len(req.Cells))
		first := len(sizes) == 1
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, r)
		var resp bankResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		if first && edit != nil {
			edit(resp.Outcomes)
		}
		writeJSON(rw, http.StatusOK, resp)
	}))
	return ts, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), sizes...)
	}
}

// TestBankFailuresStayWithTheirCells: of a 5-cell bank answered result,
// invariant, sim, result, result, the invariant cell comes back unchanged
// and only the sim cell is re-sent, as a bank of one. A worker that drops
// the connection moves the whole bank to its peer. Either way the
// accounting identity holds in cells after Close.
func TestBankFailuresStayWithTheirCells(t *testing.T) {
	w := mustWorkload(t, "compress")
	cells := bankCells(5)
	check := func(t *testing.T, outs []core.Outcome, failed int) {
		t.Helper()
		for i, o := range outs {
			if i == failed {
				continue
			}
			if o.Err != nil {
				t.Fatalf("cell %d: %v", i, o.Err)
			}
			if diff := localCell(t, w, cells[i].Config, 4).Diff(o.Result); len(diff) > 0 {
				t.Fatalf("cell %d diverges from local: %v", i, diff)
			}
		}
	}
	identity := func(t *testing.T, coord *Coordinator) {
		t.Helper()
		for _, s := range coord.StatusAll() {
			if s.Dispatched != s.Completed+s.Failed+s.HedgeWasted {
				t.Errorf("%s: dispatched %d != completed %d + failed %d + hedge_wasted %d",
					s.Worker, s.Dispatched, s.Completed, s.Failed, s.HedgeWasted)
			}
		}
	}

	t.Run("per-cell kinds", func(t *testing.T) {
		ts, sizes := recordingWorker(t, func(outs []CellOutcome) {
			outs[1] = CellOutcome{Error: &failure.Error{Kind: failure.Invariant, Message: "scoreboard out of sync"}}
			outs[2] = CellOutcome{Error: &failure.Error{Kind: failure.Sim, Message: "transient"}}
		})
		defer ts.Close()
		coord, err := New([]string{ts.URL}, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		outs := coord.ExecuteBank(context.Background(), w, testScale, cells, 0)
		coord.Close()
		check(t, outs, 1)
		var fe *failure.Error
		if !errors.As(outs[1].Err, &fe) || fe.Kind != failure.Invariant || fe.Message != "scoreboard out of sync" {
			t.Errorf("invariant cell: %v, want the worker's failure unchanged", outs[1].Err)
		}
		if got := sizes(); len(got) != 2 || got[0] != 5 || got[1] != 1 {
			t.Errorf("requests carried %v cells, want [5 1]", got)
		}
		if n := coord.retriesCtr.Value(); n != 1 {
			t.Errorf("cluster_retries_total = %d, want 1", n)
		}
		if n := coord.dispatched.With("w0").Value(); n != 6 {
			t.Errorf("cluster_dispatched_total = %d cells, want 6", n)
		}
		identity(t, coord)
	})

	t.Run("dropped connection", func(t *testing.T) {
		drop := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if conn, _, err := rw.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
		}))
		defer drop.Close()
		peer, sizes := recordingWorker(t, nil)
		defer peer.Close()
		urls := []string{peer.URL, peer.URL}
		owner := traceOwner(t, w, 2)
		urls[owner] = drop.URL
		coord, err := New(urls, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		outs := coord.ExecuteBank(context.Background(), w, testScale, cells, 0)
		coord.Close()
		check(t, outs, -1)
		if got := sizes(); len(got) != 1 || got[0] != 5 {
			t.Errorf("the peer saw requests of %v cells, want the whole bank once", got)
		}
		names := coord.Workers()
		if n := coord.failed.With(names[owner]).Value(); n != 5 {
			t.Errorf("the dropping worker's cluster_failed_total = %d, want 5", n)
		}
		identity(t, coord)
	})
}

// TestCanceledCallerFreesTheWorkerSlot: a bank request travels under its
// caller's context. A caller that gives up mid-simulation ends the
// request, so its one-slot worker fails the cell as canceled at the
// cell's next context poll instead of simulating it to the end, and the
// next cell gets the slot.
func TestCanceledCallerFreesTheWorkerSlot(t *testing.T) {
	wk := NewWorker(WorkerOptions{MaxConcurrent: 1})
	answers := make(chan []CellOutcome, 2) // one per request the test sends
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, r)
		var resp bankResponse
		if json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
			answers <- resp.Outcomes
		}
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	coord, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faultinject.Reset()
	faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
		cancel()
		time.Sleep(20 * time.Millisecond) // the worker sees its request end before its next poll
		return nil
	}, 0)
	w := mustWorkload(t, "ijpeg")
	if _, err := coord.ExecuteCell(ctx, w, mustConfig(t, "E"), 4, testScale, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the caller's context.Canceled", err)
	}
	got := <-answers
	if len(got) != 1 {
		t.Fatalf("the worker answered %d outcomes for one cell", len(got))
	}
	if e := got[0].Error; e == nil || e.Kind != failure.Canceled {
		t.Fatalf("the worker answered the abandoned cell with error %v, want a %q failure", e, failure.Canceled)
	}
	if n := wk.cells.With("computed").Value(); n != 0 {
		t.Fatalf("the worker simulated the abandoned cell to the end (%d computed)", n)
	}
	cfg := mustConfig(t, "A")
	res, err := coord.ExecuteCell(context.Background(), w, cfg, 4, testScale, false)
	if err != nil {
		t.Fatalf("next cell: %v", err)
	}
	if diff := localCell(t, w, cfg, 4).Diff(res); len(diff) > 0 {
		t.Fatalf("next cell diverges from local: %v", diff)
	}
}

// TestRemoteBankCellsSumToTheCall is TestBankedCellsBookOnceAndSumToTheBank
// through the cluster: a workload's 25 cells go out as one bank, and
// their attributed seconds sum to the executor call's time.
func TestRemoteBankCellsSumToTheCall(t *testing.T) {
	ts := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	defer ts.Close()
	coord, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	tr := metrics.NewTrace("bank")
	col := &perf.Collector{}
	r := experiments.NewRunner(200).WithWorkers(1).WithPerf(col).WithExecutor(coord).
		WithContext(metrics.WithTrace(context.Background(), tr))
	if err := r.Prefetch([]*workloads.Workload{mustWorkload(t, "compress")}, core.Configs(), core.Widths); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range col.Cells() {
		sum += c.Seconds
	}
	if n := len(col.Cells()); n != 25 {
		t.Fatalf("%d perf records, want 25", n)
	}
	var calls, callUS int64
	for _, s := range tr.Doc().Spans {
		if s.Name == "execute" {
			calls++
			callUS += s.DurUS
		}
	}
	if calls != 1 {
		t.Fatalf("%d executor calls, want one bank", calls)
	}
	call := float64(callUS) / 1e6
	t.Logf("cells sum to %.6f s, the call took %.6f s", sum, call)
	if sum > call+1e-6 || sum < 0.99*call {
		t.Errorf("cells sum to %.6f s, not within 1%% of the call's %.6f s", sum, call)
	}
}
