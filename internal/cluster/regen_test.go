package cluster

// Tests for spec-carried traces: workers rebuild traces locally from the
// generator a cell spec names and verify the content hash, so no trace
// bytes ever cross the wire — and a worker that cannot reproduce a trace
// hands the cell back to a peer or the coordinator's local fallback.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/failure"
)

// TestWorkerRegeneratesFromSpec: a default worker regenerates the trace
// from the cell spec, hash-verified, and the result is byte-identical to
// local execution.
func TestWorkerRegeneratesFromSpec(t *testing.T) {
	wk := NewWorker(WorkerOptions{})
	ts := httptest.NewServer(wk.Handler())
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
			t.Fatalf("regenerated result diverges from local (%s): %v", cfgName, diff)
		}
	}

	// One workload, two cells: one trace hash resolved, both cells computed.
	if n := wk.regens.Value(); n != 1 {
		t.Fatalf("worker regenerated %d traces, want 1", n)
	}
	if n := wk.cells.With("computed").Value(); n != 2 {
		t.Fatalf("worker computed %d cells, want 2", n)
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Fatalf("local fallback used %d times on a healthy cluster", n)
	}
}

// TestShippingDisabledThreeWorkerSweep: no trace bytes ever cross the
// wire, and a 3-worker sweep over two workloads and the config grid still
// produces results byte-identical to local execution — every cell is
// served by spec regeneration.
func TestShippingDisabledThreeWorkerSweep(t *testing.T) {
	var wks [3]*Worker
	urls := make([]string, 3)
	for i := range wks {
		wks[i] = NewWorker(WorkerOptions{})
		ts := httptest.NewServer(wks[i].Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}

	coord, err := New(urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for _, wname := range []string{"espresso", "eqntott"} {
		w := mustWorkload(t, wname)
		for _, cfgName := range []string{"A", "C", "D"} {
			cfg := mustConfig(t, cfgName)
			got, err := coord.ExecuteCell(context.Background(), w, cfg, 8, testScale, false)
			if err != nil {
				t.Fatalf("%s/%s: %v", wname, cfgName, err)
			}
			want := localCell(t, w, cfg, 8)
			if diff := want.Diff(got); len(diff) > 0 {
				t.Fatalf("%s/%s diverges from local: %v", wname, cfgName, diff)
			}
		}
	}

	var regens int64
	for _, wk := range wks {
		regens += wk.regens.Value()
	}
	if regens == 0 {
		t.Fatal("no worker regenerated a trace; cells cannot have run remotely")
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Fatalf("local fallback used %d times, want 0", n)
	}
}

// TestOverBudgetWorkerServesEveryCell: a worker whose one-byte trace
// budget forces regeneration on every open keeps serving cells after the
// request that first resolved the trace has ended — its regenerator must
// not capture that request's context.
func TestOverBudgetWorkerServesEveryCell(t *testing.T) {
	wk := NewWorker(WorkerOptions{MaxTraceMem: 1})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()

	coord, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := mustWorkload(t, "compress")
	for _, cfgName := range []string{"A", "B", "C"} {
		cfg := mustConfig(t, cfgName)
		got, err := coord.ExecuteCell(context.Background(), w, cfg, 4, testScale, false)
		if err != nil {
			t.Fatalf("ExecuteCell(%s): %v", cfgName, err)
		}
		if diff := localCell(t, w, cfg, 4).Diff(got); len(diff) > 0 {
			t.Fatalf("over-budget worker diverges from local (%s): %v", cfgName, diff)
		}
	}
	if n := wk.cells.With("failed").Value(); n != 0 {
		t.Fatalf("worker failed %d cells, want 0", n)
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Fatalf("local fallback used %d times, want 0", n)
	}
}

// rewritingProxy forwards cell banks to wk after applying edit to every
// spec — a worker whose build disagrees with the coordinator's.
func rewritingProxy(t *testing.T, wk *Worker, edit func(*CellSpec)) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cells" {
			var req bankRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			for i := range req.Cells {
				edit(&req.Cells[i])
			}
			body, _ := json.Marshal(req)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		wk.Handler().ServeHTTP(rw, r)
	}))
}

// TestUnreproducibleTraceFallsBackLocally: the bottom rung of the ladder.
// A worker that cannot reproduce the named trace — the generator is
// unknown to it, or its regenerated hash differs — answers a transient
// failure, and the coordinator's local fallback serves a correct result.
func TestUnreproducibleTraceFallsBackLocally(t *testing.T) {
	for name, edit := range map[string]func(*CellSpec){
		"unknown-generator": func(s *CellSpec) { s.Workload = "nosuch" },
		"hash-mismatch":     func(s *CellSpec) { s.Scale++ },
	} {
		t.Run(name, func(t *testing.T) {
			wk := NewWorker(WorkerOptions{})
			ts := rewritingProxy(t, wk, edit)
			defer ts.Close()

			coord, err := New([]string{ts.URL}, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			w := mustWorkload(t, "espresso")
			cfg := mustConfig(t, "A")
			got, err := coord.ExecuteCell(context.Background(), w, cfg, 4, testScale, false)
			if err != nil {
				t.Fatalf("ExecuteCell: %v", err)
			}
			if diff := localCell(t, w, cfg, 4).Diff(got); len(diff) > 0 {
				t.Fatalf("fallback result diverges from local: %v", diff)
			}
			if n := coord.fallbacks.Value(); n != 1 {
				t.Fatalf("local fallback served %d cells, want 1", n)
			}
			if n := wk.cells.With("computed").Value(); n != 0 {
				t.Fatalf("worker computed %d cells from a trace it could not reproduce", n)
			}
			if n := wk.regens.Value(); n != 0 {
				t.Fatalf("worker counted %d regenerations, want 0", n)
			}
		})
	}
}

// TestSpecNamesExactlyOneGenerator: a spec naming both generators, or
// neither, is malformed — the worker answers invalid (permanent) without
// trying to regenerate anything.
func TestSpecNamesExactlyOneGenerator(t *testing.T) {
	wk := NewWorker(WorkerOptions{})
	ts := httptest.NewServer(wk.Handler())
	defer ts.Close()

	cfg := mustConfig(t, "A")
	both := CellSpec{Workload: "compress", Tracegen: &TracegenSpec{Profile: "uniform", Seed: 1}}
	neither := CellSpec{}
	cells := []CellSpec{both, neither}
	for i := range cells {
		cells[i].TraceHash = hashString(1)
		cells[i].Config, cells[i].Width, cells[i].Scale = cfg, 4, 1
	}
	outs, err := newWorkerClient("w0", ts.URL, http.DefaultClient).ExecBank(context.Background(), cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Error == nil || out.Error.Kind != failure.Invalid || !out.Error.Kind.Permanent() {
			t.Errorf("cell %d: outcome %+v, want a permanent %q error", i, out, failure.Invalid)
		}
	}
	if n := wk.regens.Value(); n != 0 {
		t.Fatalf("worker regenerated %d traces for malformed specs", n)
	}
}
