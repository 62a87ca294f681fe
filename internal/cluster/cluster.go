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
//   - the unit shipped is a bank: cells that share one trace, sent as one
//     request and run by the worker as one core.Bank over one open of the
//     trace;
//   - the dispatcher (coordinator.go) sends each bank to the least-loaded
//     usable worker, preferring the trace's rendezvous owner among those
//     (partition.go), under the caller's context and its own deadline; it
//     re-sends transiently failed cells as a smaller bank to the next-best
//     worker, and hedges a straggling request with one speculative copy —
//     the first response wins, the loser is accounted as wasted
//     speculation (cluster_hedge_wasted_total), never as a result;
//   - the spec is the transport: a cell names its trace's generator (a
//     workload at a scale, or a tracegen profile, seed and length) plus the
//     content hash the coordinator computed, and the worker regenerates
//     the trace and verifies the hash — trace bytes never cross the wire,
//     and results cache worker-side in the existing durable store;
//   - a health tracker (health.go) feeds probe and dispatch outcomes into
//     per-worker state, quarantining flapping workers so a worker that
//     oscillates cannot churn the dispatch plan;
//   - when no worker is healthy — or retries are exhausted — the cells
//     left run as one local bank: the cluster can degrade to exactly the
//     single-process behavior it scaled up from.
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
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

// maxBankCells bounds one POST /cells body — far above the banks we
// actually ship (at most a workload's 25 paper cells), low enough that a
// malformed request can't park unbounded work on one worker.
const maxBankCells = 1024

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

// traceKey names the spec's trace: its generator plus its content hash.
// It is the rendezvous key a bank is dispatched by, and the worker groups a
// request's cells into banks by it.
func (c CellSpec) traceKey() string {
	key := fmt.Sprintf("%s|%s|%d", c.TraceHash, c.Workload, c.Scale)
	if g := c.Tracegen; g != nil {
		key += fmt.Sprintf("|%s|%d|%d", g.Profile, g.Seed, g.Records)
	}
	return key
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

// bankRequest is the POST /cells body: a bank of cells and the budget that
// bounds each cell's attributed simulation time (0 = none), as
// core.NewBank's budget does locally.
type bankRequest struct {
	Cells  []CellSpec    `json:"cells"`
	Budget time.Duration `json:"budget_ns,omitempty"`
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
	// taxonomy worker-side so the coordinator can branch on its kind.
	Error *failure.Error `json:"error,omitempty"`
	// FromStore reports the result was served from the worker's durable
	// store rather than computed.
	FromStore bool `json:"from_store,omitempty"`
	// Seconds is the time the worker's bank attributed to the cell
	// (core.Outcome.Seconds); 0 for a cell that never reached a bank.
	Seconds float64 `json:"seconds,omitempty"`
}

// outcome decodes a wire outcome into the one a local bank would give.
func (o CellOutcome) outcome() core.Outcome {
	if o.Error != nil {
		return core.Outcome{Err: o.Error, Seconds: o.Seconds}
	}
	res, err := unmarshalResult(o.Result)
	return core.Outcome{Result: res, Err: err, Seconds: o.Seconds}
}

// runBank runs specs, which share one trace, as one core.Bank over one
// open of prov under budget, as the worker does and as the coordinator's
// local fallback does. A bank that cannot start, or a panic outside the
// back ends, fails every cell alike (as a *watchdog.PanicError for the
// panic, as in a local Runner).
func runBank(ctx context.Context, prov trace.Provider, specs []CellSpec, budget time.Duration) []core.Outcome {
	outs, err := watchdog.Run(ctx, 0, func(ctx context.Context, _ func()) ([]core.Outcome, error) {
		cells := make([]core.Cell, len(specs))
		for i, s := range specs {
			cells[i] = core.Cell{Config: s.Config, Params: core.Params{Width: s.Width, WindowSize: s.Window, SelfCheck: s.SelfCheck}}
		}
		b, err := core.NewBank(cells, budget)
		if err != nil {
			return nil, err
		}
		src, err := prov.Open()
		if err != nil {
			return nil, fmt.Errorf("cluster: opening trace: %w", err)
		}
		defer trace.CloseSource(src)
		outs, _ := b.Run(ctx, src) // a bank-wide error is every live cell's Err
		return outs, nil
	})
	if err != nil {
		outs = make([]core.Outcome, len(specs))
		for i := range outs {
			outs[i].Err = err
		}
	}
	return outs
}

// bankResponse is the POST /cells response: outcomes[i] answers cells[i].
type bankResponse struct {
	Outcomes []CellOutcome `json:"outcomes"`
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
