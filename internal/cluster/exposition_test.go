package cluster

// Golden exposition test for the cluster_* metric families: the CI soak
// greps a live /metrics page for these exact sample keys, so the byte
// format — family order, label order, pre-touched worker children — is a
// contract, not an implementation detail.

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestClusterExpositionGolden(t *testing.T) {
	coord, err := New([]string{"http://w0.invalid", "http://w1.invalid"}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	reg := metrics.NewRegistry()
	coord.Instrument(reg)

	// Script a plausible quiescent state. The accounting identity holds
	// per worker: dispatched == completed + failed + hedge_wasted.
	coord.dispatched.With("w0").Add(5)
	coord.dispatched.With("w1").Add(3)
	coord.completed.With("w0").Add(3)
	coord.completed.With("w1").Add(3)
	coord.failed.With("w0").Add(1)
	coord.hedgeWasted.With("w0").Add(1)
	coord.hedges.Inc()
	coord.fallbacks.Add(2)
	coord.retriesCtr.Inc()
	coord.batchSecs.Observe(0.5)
	coord.batchSecs.Observe(1)

	want := `# HELP cluster_batch_seconds batch round-trip wall time
# TYPE cluster_batch_seconds histogram
cluster_batch_seconds_bucket{le="0.0001"} 0
cluster_batch_seconds_bucket{le="0.00025"} 0
cluster_batch_seconds_bucket{le="0.0005"} 0
cluster_batch_seconds_bucket{le="0.001"} 0
cluster_batch_seconds_bucket{le="0.0025"} 0
cluster_batch_seconds_bucket{le="0.005"} 0
cluster_batch_seconds_bucket{le="0.01"} 0
cluster_batch_seconds_bucket{le="0.025"} 0
cluster_batch_seconds_bucket{le="0.05"} 0
cluster_batch_seconds_bucket{le="0.1"} 0
cluster_batch_seconds_bucket{le="0.25"} 0
cluster_batch_seconds_bucket{le="0.5"} 1
cluster_batch_seconds_bucket{le="1"} 2
cluster_batch_seconds_bucket{le="2.5"} 2
cluster_batch_seconds_bucket{le="5"} 2
cluster_batch_seconds_bucket{le="10"} 2
cluster_batch_seconds_bucket{le="30"} 2
cluster_batch_seconds_bucket{le="60"} 2
cluster_batch_seconds_bucket{le="+Inf"} 2
cluster_batch_seconds_sum 1.5
cluster_batch_seconds_count 2
# HELP cluster_completed_total dispatched cells whose response was consumed
# TYPE cluster_completed_total counter
cluster_completed_total{worker="w0"} 3
cluster_completed_total{worker="w1"} 3
# HELP cluster_dispatched_total cells dispatched to workers (each batched send of each cell counts once)
# TYPE cluster_dispatched_total counter
cluster_dispatched_total{worker="w0"} 5
cluster_dispatched_total{worker="w1"} 3
# HELP cluster_failed_total dispatched cells lost to transport failure or discarded on error
# TYPE cluster_failed_total counter
cluster_failed_total{worker="w0"} 1
cluster_failed_total{worker="w1"} 0
# HELP cluster_hedge_wasted_total dispatched cells whose response lost a hedge race (wasted speculation)
# TYPE cluster_hedge_wasted_total counter
cluster_hedge_wasted_total{worker="w0"} 1
cluster_hedge_wasted_total{worker="w1"} 0
# HELP cluster_hedges_total speculative duplicate dispatches launched
# TYPE cluster_hedges_total counter
cluster_hedges_total 1
# HELP cluster_inflight_cells cells currently in flight per worker
# TYPE cluster_inflight_cells gauge
cluster_inflight_cells{worker="w0"} 0
cluster_inflight_cells{worker="w1"} 0
# HELP cluster_local_fallback_total cells executed locally (no usable worker, or dispatch retries exhausted)
# TYPE cluster_local_fallback_total counter
cluster_local_fallback_total 2
# HELP cluster_retries_total cell re-dispatches after failures
# TYPE cluster_retries_total counter
cluster_retries_total 1
`
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("cluster exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}

	// The soak's invariant checker reads this page back through ParseText;
	// the identity must be recoverable from the parsed samples alone.
	vals, err := metrics.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"w0", "w1"} {
		d := vals[`cluster_dispatched_total{worker="`+w+`"}`]
		sum := vals[`cluster_completed_total{worker="`+w+`"}`] +
			vals[`cluster_failed_total{worker="`+w+`"}`] +
			vals[`cluster_hedge_wasted_total{worker="`+w+`"}`]
		if d != sum {
			t.Errorf("%s: parsed identity broken: dispatched %v != %v", w, d, sum)
		}
	}
}

// TestWorkerExpositionFamilies checks the worker side exposes its families
// with the outcome children the dashboards key on.
func TestWorkerExpositionFamilies(t *testing.T) {
	wk := NewWorker(WorkerOptions{})
	reg := metrics.NewRegistry()
	wk.Instrument(reg)

	wk.cells.With("computed").Add(3)
	wk.cells.With("store_hit").Inc()
	wk.batches.Inc()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`cluster_worker_cells_total{outcome="computed"} 3`,
		`cluster_worker_cells_total{outcome="store_hit"} 1`,
		`cluster_worker_batches_total 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("worker exposition missing %q:\n%s", line, out)
		}
	}
}
