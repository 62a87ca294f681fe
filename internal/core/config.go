// Package core implements the paper's trace-driven limit simulator: a
// Wall-style scheduling window with greedy out-of-order issue, configurable
// data-dependence speculation (stride-based load-address prediction) and
// data-dependence collapsing (3-1 / 4-1 interlock collapsing with zero
// detection), under ideal register renaming, perfect memory disambiguation,
// and realistic conditional-branch prediction.
//
// The five machine configurations of the paper (Section 4) are exposed as
// ConfigA..ConfigE; Run schedules one trace under one configuration and
// returns a Result carrying every statistic the paper's tables and figures
// report.
package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/mem"
	"repro/internal/stride"
	"repro/internal/vpred"
)

// Config selects the speculation and collapsing mechanisms, mirroring the
// paper's configurations A-E.
type Config struct {
	Name          string
	Collapse      bool // d-collapsing enabled
	LoadSpec      bool // real load-speculation (stride table + confidence)
	IdealLoadSpec bool // every not-ready load speculates correctly

	// LoadValuePred enables last-value prediction of load results (the
	// paper's reference [9] and stated future-work direction): a correctly
	// predicted load's consumers see its value immediately, removing the
	// load-use dependence entirely.
	LoadValuePred bool

	// PairsOnly restricts collapsing to two-instruction groups (an
	// ablation reproducing the older interlock-collapsing studies).
	PairsOnly bool
	// ConsecutiveOnly restricts collapsing to adjacent dynamic
	// instructions (distance 1), another ablation from prior work.
	ConsecutiveOnly bool
	// NoShiftCollapse removes shift operations from the collapsible set,
	// isolating the paper's shift extension.
	NoShiftCollapse bool
	// NoZeroDetect disables zero-operand detection (the 0-op mechanism).
	NoZeroDetect bool
	// PerfectBranches replaces the McFarling predictor with an oracle,
	// isolating the control-flow limit.
	PerfectBranches bool
}

// The paper's five machine configurations, plus configuration F — the
// paper's future-work extension adding last-value load-value prediction on
// top of configuration D.
var (
	ConfigA = Config{Name: "A"}
	ConfigB = Config{Name: "B", LoadSpec: true}
	ConfigC = Config{Name: "C", Collapse: true}
	ConfigD = Config{Name: "D", Collapse: true, LoadSpec: true}
	ConfigE = Config{Name: "E", Collapse: true, LoadSpec: true, IdealLoadSpec: true}
	ConfigF = Config{Name: "F", Collapse: true, LoadSpec: true, LoadValuePred: true}
)

// Configs returns the paper's five configurations in order.
func Configs() []Config { return []Config{ConfigA, ConfigB, ConfigC, ConfigD, ConfigE} }

// ConfigByName resolves "A".."F".
func ConfigByName(name string) (Config, error) {
	for _, c := range append(Configs(), ConfigF) {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("core: unknown configuration %q", name)
}

// Fingerprint returns a canonical, injective encoding of the configuration:
// two Configs fingerprint equal iff every field is equal. It replaces the
// old ad-hoc name+ablation-suffix cache keys and is the configuration
// component of the durable result store's key (internal/store), so its
// encoding is versioned: the leading "cfg1" tag must change if fields are
// ever added, removed, or reordered.
//
// The nine boolean fields are encoded positionally as fixed-width 0/1
// digits, and the free-form Name comes last, so distinct configurations
// can never collide regardless of the Name's contents.
func (c Config) Fingerprint() string {
	bit := func(v bool) byte {
		if v {
			return '1'
		}
		return '0'
	}
	bits := [9]byte{
		bit(c.Collapse), bit(c.LoadSpec), bit(c.IdealLoadSpec),
		bit(c.LoadValuePred), bit(c.PairsOnly), bit(c.ConsecutiveOnly),
		bit(c.NoShiftCollapse), bit(c.NoZeroDetect), bit(c.PerfectBranches),
	}
	return "cfg1:" + string(bits[:]) + ":" + c.Name
}

// Widths are the paper's maximum issue widths; 2048 is the paper's "2k".
var Widths = []int{4, 8, 16, 32, 2048}

// AddrPredictor abstracts the load-address predictor so alternatives can be
// plugged in (see examples/custompredictor). stride.Predictor implements it.
type AddrPredictor interface {
	// Lookup returns the prediction for the load at pc without training.
	Lookup(pc uint32) stride.Prediction
	// Update trains with the actual address; every load updates the table.
	Update(pc uint32, addr uint32) bool
}

var _ AddrPredictor = (*stride.Predictor)(nil)

// ValuePredictor abstracts the load-value predictor used by configurations
// with LoadValuePred; vpred.Predictor implements it.
type ValuePredictor interface {
	// Lookup returns the value prediction for the load at pc.
	Lookup(pc uint32) vpred.Prediction
	// Update trains with the value the load actually returned.
	Update(pc uint32, value int32) bool
}

var _ ValuePredictor = (*vpred.Predictor)(nil)

// Params fixes the machine dimensions and predictor implementations for one
// simulation run.
type Params struct {
	// Width is the maximum number of instructions issued per cycle.
	Width int
	// WindowSize is the scheduling window capacity; 0 means the paper's
	// 2x width.
	WindowSize int
	// Branch is the conditional-branch predictor; nil means the paper's
	// 8 kB McFarling combining predictor.
	Branch bpred.Predictor
	// Addr is the load-address predictor; nil means the paper's 4096-entry
	// two-delta stride table. Used only by configurations with real
	// load-speculation.
	Addr AddrPredictor
	// Value is the load-value predictor; nil means a 4096-entry last-value
	// table. Used only by configurations with LoadValuePred.
	Value ValuePredictor
	// Cache, when non-nil, replaces the paper's perfect memory with an L1
	// data cache model: loads that miss pay the configured extra latency
	// (the "more realistic environments" extension; see internal/mem).
	Cache *mem.Cache

	// Progress, when non-nil, is invoked by RunChecked every ProgressEvery
	// scheduled instructions (and once more when the trace is exhausted)
	// with a heartbeat snapshot. Watchdogs (internal/watchdog, the
	// experiments runner's stall detection) use it to tell a slow run from
	// a hung one; CLIs print it as a progress line. The hook runs on the
	// scheduling goroutine — it must be cheap and must not block.
	Progress func(Progress)
	// ProgressEvery is the instruction interval between Progress calls;
	// 0 means the default of 65536.
	ProgressEvery int64

	// SelfCheck makes RunChecked sweep the scheduler invariants (issue
	// bandwidth, the window-occupancy identity, IPC bound,
	// collapse-counter consistency) every SelfCheckEvery
	// instructions, failing the run with an *InvariantError on the first
	// violation. Each sweep costs O(window + issued cycles); see
	// docs/robustness.md.
	SelfCheck bool
	// SelfCheckEvery is the instruction interval between invariant sweeps;
	// 0 means the default of 4096.
	SelfCheckEvery int
}

// DefaultSelfCheckEvery is the invariant-sweep interval used when
// Params.SelfCheckEvery is zero.
const DefaultSelfCheckEvery = 4096

// DefaultProgressEvery is the heartbeat interval used when
// Params.ProgressEvery is zero.
const DefaultProgressEvery = 65536

// Progress is the heartbeat snapshot passed to Params.Progress.
type Progress struct {
	Records int64 // dynamic instructions scheduled so far
	Cycles  int64 // issue cycles consumed so far
}

func (p Params) withDefaults() Params {
	if p.Width <= 0 {
		p.Width = 4
	}
	if p.WindowSize <= 0 {
		p.WindowSize = 2 * p.Width
	}
	if p.SelfCheckEvery <= 0 {
		p.SelfCheckEvery = DefaultSelfCheckEvery
	}
	if p.ProgressEvery <= 0 {
		p.ProgressEvery = DefaultProgressEvery
	}
	return p
}
