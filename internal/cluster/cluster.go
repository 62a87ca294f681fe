// Package cluster is the distributed sweep plane: a coordinator/worker
// compute layer over the serving stack that shards the embarrassingly
// parallel (workload × config × width) sweep grid across worker processes
// while keeping every result — and every rendered report — byte-identical
// to a single-process run.
//
// The split mirrors the decoupled access/execute architectures the paper's
// lineage studies: dispatch is decoupled from execution, and the
// coordinator speculates on worker availability the same way the simulator
// speculates on data dependences — optimistically, with cheap recovery:
//
//   - a deterministic rendezvous partitioner (partition.go) assigns every
//     cell to exactly one owning worker for a fixed (workers, seed), so
//     a worker keeps seeing the traces it already resolved and a lost
//     worker moves only its own cells;
//   - the dispatcher (coordinator.go) batches cells per worker, sends each
//     batch under its own deadline, retries transport-class failures on the
//     least-loaded healthy peer, and hedges stragglers with one speculative
//     re-dispatch — the first response wins, the loser is accounted as
//     wasted speculation (cluster_hedge_wasted_total), never as a result;
//   - the spec is the transport: a cell names its trace's generator (a
//     workload at a scale, or a tracegen profile, seed and length) plus the
//     content hash the coordinator computed, and the worker regenerates
//     the trace and verifies the hash — trace bytes never cross the wire,
//     and results cache worker-side in the existing durable store;
//   - a health tracker (health.go) feeds probe and dispatch outcomes into
//     per-worker state, quarantining flapping workers so a worker that
//     oscillates cannot churn the dispatch plan;
//   - when no worker is healthy — or retries are exhausted — execution
//     falls back to the local simulator transparently: the cluster can
//     degrade to exactly the single-process behavior it scaled up from.
//
// Simulation is deterministic, so it does not matter *which* worker (or the
// local fallback) computes a cell: merging is just placing outcomes back
// into the sweep's deterministic cell order, and the merged report is
// byte-stable by construction. The conformance tests and the multi-worker
// chaos campaign (internal/chaos) assert exactly that, under worker kills,
// restarts, and partitions. See docs/scaling.md for the full contract.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/workloads"
)

// maxBatchCells bounds one POST /cells body — far above the sweep grids we
// actually ship (tens of cells), low enough that a malformed request can't
// park unbounded work on one worker.
const maxBatchCells = 1024

// maxCellsBody bounds the JSON bodies on the cell endpoints (specs and
// outcomes are small; results are a few KiB each).
const maxCellsBody = 32 << 20

// CellSpec is one simulation cell on the wire. The trace is never carried
// inline: the spec names its generator — exactly one of Workload (at
// Scale) or Tracegen — and the worker regenerates it, then verifies the
// result against TraceHash. Workload and Scale are also part of the store
// key, so worker-side entries keep human-readable filenames and the exact
// key the coordinator's runner would use.
type CellSpec struct {
	// TraceHash is the trace's content hash (trace.ContentHash), rendered
	// as %016x — JSON numbers cannot carry 64 bits faithfully.
	TraceHash string `json:"trace_hash"`
	// Config is the full machine configuration, every ablation field
	// included, so grids beyond the named A-F points (the differential
	// harness's C-pairs, D-perfbr, …) cross the wire losslessly.
	Config    core.Config `json:"config"`
	Width     int         `json:"width"`
	Window    int         `json:"window,omitempty"` // 0 = the default 2x width
	Scale     int         `json:"scale"`            // workload scale (>= 1, normalized by the coordinator)
	SelfCheck bool        `json:"selfcheck,omitempty"`
	Workload  string      `json:"workload,omitempty"` // generator: a workloads.ByName program at Scale
	// Tracegen is the other generator: a synthetic trace.
	Tracegen *TracegenSpec `json:"tracegen,omitempty"`
}

// TracegenSpec names a synthetic trace by its generator: a tracegen
// profile (by name), a seed, and a record count (<= 0: the profile's).
type TracegenSpec struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	Records int    `json:"records,omitempty"`
}

// checkGenerator rejects a spec that names both generators or neither.
func (c CellSpec) checkGenerator() error {
	if (c.Workload == "") == (c.Tracegen == nil) {
		return errors.New("cluster: a cell spec names exactly one generator (workload or tracegen)")
	}
	return nil
}

// provider resolves the spec's generator to its trace: the coordinator
// uses it to hash and for local fallback, the worker to regenerate before
// verifying against TraceHash. Workload traces come from the process-wide
// workloads memo under opt; tracegen traces regenerate per open, in O(1)
// memory whatever their length.
func (c CellSpec) provider(ctx context.Context, opt workloads.ProviderOptions) (trace.Provider, error) {
	if err := c.checkGenerator(); err != nil {
		return nil, err
	}
	if g := c.Tracegen; g != nil {
		p, err := tracegen.ProfileByName(g.Profile)
		if err != nil {
			return nil, err
		}
		if g.Records > 0 {
			p.Records = g.Records
		}
		return trace.NewRegenProvider(func() (trace.ErrSource, error) {
			return tracegen.NewStream(g.Seed, p), nil
		}), nil
	}
	w, err := workloads.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	return w.Provider(ctx, c.Scale, opt)
}

// hash parses the spec's trace hash. The coordinator always writes it with
// hashString, so a parse failure is a malformed request, not corruption.
func (c CellSpec) hash() (uint64, error) {
	var h uint64
	if _, err := fmt.Sscanf(c.TraceHash, "%016x", &h); err != nil {
		return 0, fmt.Errorf("cluster: bad trace_hash %q", c.TraceHash)
	}
	return h, nil
}

// hashString renders a trace content hash for the wire.
func hashString(h uint64) string { return fmt.Sprintf("%016x", h) }

// batchRequest is the POST /cells body: a batch of cells executed under one
// deadline.
type batchRequest struct {
	Cells []CellSpec `json:"cells"`
}

// CellOutcome is one cell's result on the wire. Exactly one of Result or
// Error is meaningful.
type CellOutcome struct {
	// Result is the marshaled core.Result on success. Raw bytes, decoded
	// lazily: the coordinator round-trips it through the same JSON shape
	// the durable store uses, which the resume suites already prove
	// byte-stable.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the structured failure, classified into the pipeline
	// taxonomy worker-side so the coordinator can branch on Kind.
	Error *RemoteError `json:"error,omitempty"`
	// FromStore reports the result was served from the worker's durable
	// store rather than computed.
	FromStore bool `json:"from_store,omitempty"`
}

// batchResponse is the POST /cells response: outcomes[i] answers cells[i].
type batchResponse struct {
	Outcomes []CellOutcome `json:"outcomes"`
}

// RemoteError kinds — the same taxonomy the serving layer's JobError uses,
// so a remote failure classifies identically to a local one.
const (
	KindCorrupt   = "corrupt"   // corrupt trace or store input (permanent)
	KindInvariant = "invariant" // scheduler self-check failed (permanent)
	KindDeadline  = "deadline"  // the cell overran its deadline (permanent)
	KindPanic     = "panic"     // the cell panicked worker-side
	KindCanceled  = "canceled"  // the request was canceled (hedge loser, shutdown)
	KindSim       = "sim"       // any other simulation failure (transient)
	KindInvalid   = "invalid"   // malformed cell spec (permanent: re-sending cannot fix it)
)

// RemoteError is a worker-side cell failure carried back to the
// coordinator. It implements the retry package's Permanent marker so the
// coordinator's (and runner's) taxonomy-aware retry treats remote failures
// exactly like local ones: deterministic failures are never re-dispatched.
type RemoteError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: remote %s: %s", e.Kind, e.Message)
}

// Permanent reports whether re-executing the cell would deterministically
// fail again (retry.Classify consumes this via its marker interface).
func (e *RemoteError) Permanent() bool {
	switch e.Kind {
	case KindCorrupt, KindInvariant, KindDeadline, KindInvalid:
		return true
	}
	return false
}

// classifyRemote maps a worker-side execution error onto the wire taxonomy.
// It mirrors the serving layer's classifier without importing it (the
// server imports this package, not the reverse).
func classifyRemote(err error) *RemoteError {
	if err == nil {
		return nil
	}
	var inv *core.InvariantError
	switch {
	case errors.As(err, &inv):
		return &RemoteError{Kind: KindInvariant, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &RemoteError{Kind: KindDeadline, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return &RemoteError{Kind: KindCanceled, Message: err.Error()}
	case trace.IsCorrupt(err):
		return &RemoteError{Kind: KindCorrupt, Message: err.Error()}
	}
	return &RemoteError{Kind: KindSim, Message: err.Error()}
}

// marshalResult serializes a result for the wire — the same plain JSON
// shape the durable store round-trips.
func marshalResult(res *core.Result) (json.RawMessage, error) {
	return json.Marshal(res)
}

// unmarshalResult decodes a wire result.
func unmarshalResult(data json.RawMessage) (*core.Result, error) {
	var res core.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("cluster: bad result payload: %w", err)
	}
	return &res, nil
}

// readJSON decodes a size-bounded JSON request body.
func readJSON(r *http.Request, v any) error {
	return json.NewDecoder(io.LimitReader(r.Body, maxCellsBody)).Decode(v)
}

// writeJSON writes a JSON response (mirrors the serving layer's helper; the
// cluster package cannot import internal/server).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
