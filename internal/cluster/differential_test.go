package cluster

// Differential conformance through the wire: cells naming random
// generated traces (tracegen profile, seed, length) run through a
// 3-worker cluster, whose workers regenerate each trace from its spec, and
// through local execution, and the two must agree point-for-point. The oracle then re-checks the same grid
// against the reference model, so a wire-format bug cannot hide behind a
// simulator bug that happens to round-trip.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/tracegen"
)

func TestDifferentialTracegenGridThroughCluster(t *testing.T) {
	workers := make([]*Worker, 3)
	urls := make([]string, 3)
	for i := range workers {
		workers[i] = NewWorker(WorkerOptions{})
		ts := httptest.NewServer(workers[i].Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}

	coord, err := New(urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	cfgs := []core.Config{mustConfig(t, "A"), mustConfig(t, "C"), mustConfig(t, "E")}
	widths := []int{4, 8}
	windows := []int{0, 16}
	rng := rand.New(rand.NewSource(99))

	profiles := tracegen.Profiles()
	for _, p := range profiles {
		seed := rng.Int63()
		buf := tracegen.Gen(seed, p)

		for _, cfg := range cfgs {
			for _, width := range widths {
				for _, window := range windows {
					// Scale 1: a synthetic trace has no workload scale;
					// the value only keeps worker-side store keys well-formed.
					got, err := coord.execute(context.Background(), CellSpec{
						Tracegen: &TracegenSpec{Profile: p.Name, Seed: seed, Records: p.Records},
						Config:   cfg, Width: width, Window: window, Scale: 1,
					})
					if err != nil {
						t.Fatalf("%s seed=%d cfg=%s w=%d win=%d: %v", p.Name, seed, cfg.Name, width, window, err)
					}
					want, err := core.RunChecked(context.Background(), buf.Reader(), cfg,
						core.Params{Width: width, WindowSize: window})
					if err != nil {
						t.Fatalf("%s local run: %v", p.Name, err)
					}
					if diff := want.Diff(got); len(diff) > 0 {
						t.Fatalf("%s seed=%d cfg=%s w=%d win=%d: cluster diverges from local: %v",
							p.Name, seed, cfg.Name, width, window, diff)
					}
				}
			}
		}

		// Same grid against the reference model: the cluster agreed with
		// the simulator, and the simulator must agree with the oracle.
		if d := oracle.CheckAll(buf, cfgs, widths, windows); d != nil {
			t.Fatalf("%s seed=%d: simulator diverges from oracle:\n%s", p.Name, seed, d.Error())
		}
	}

	// All three workers must have participated: the grid has far more
	// cells than workers, and rendezvous hashing spreads distinct traces.
	for i, wk := range workers {
		if n := wk.cells.With("computed").Value(); n == 0 {
			t.Errorf("worker %d computed no cells; sharding sent it nothing", i)
		}
	}
	if n := coord.fallbacks.Value(); n != 0 {
		t.Errorf("differential grid used local fallback %d times on a healthy cluster", n)
	}
}
