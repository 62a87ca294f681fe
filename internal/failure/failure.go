// Package failure is the pipeline's one failure taxonomy: the kinds a cell
// can fail with, the one table that says which of them are permanent, and
// the one function (Of) that maps an error to its kind. Every layer reads
// it — retry.Do, the cluster coordinator's re-dispatch test, the serving
// layer's job errors and sweep report, the cluster wire, and the
// per-benchmark table — so a cell fails the same way whether it ran in a
// local Runner, as a ddserve job, or on a cluster worker.
// docs/robustness.md §6 is the same table in prose.
//
// Typed errors declare their own kind through a FailureKind method, so
// this package imports none of them: *core.InvariantError,
// *watchdog.PanicError, watchdog.ErrStalled, *experiments.CellDeadlineError
// and the trace corruption sentinels.
package failure

import (
	"context"
	"errors"
)

// Kind names a failure class. The strings are the job-error and wire
// kinds clients branch on.
type Kind string

// The kinds, in the order docs/robustness.md §6 lists them.
const (
	Sim         Kind = "sim"         // any other failure: injected faults, I/O, an unreproducible trace
	Corrupt     Kind = "corrupt"     // corrupt trace or store input
	Invariant   Kind = "invariant"   // a scheduler self-check failed
	Stalled     Kind = "stalled"     // the stall watchdog reaped the cell
	Deadline    Kind = "deadline"    // a cell or job deadline expired
	Panic       Kind = "panic"       // the cell panicked; recovered and isolated
	Invalid     Kind = "invalid"     // a malformed cell spec
	Canceled    Kind = "canceled"    // the caller's context was canceled
	Drain       Kind = "drain"       // the server drained around the job
	Quarantined Kind = "quarantined" // the cell crashed repeatedly; not run
)

// permanent is the permanence table. A permanent kind is never retried:
// the pipeline is deterministic, so the cell fails the same way again, or
// the caller's run is over. Sim is the one transient kind; a kind missing
// here (say, from a newer worker) is transient too, because a bounded
// retry of a novel permanent failure costs a few backoffs while giving up
// on a transient one forfeits the cell.
var permanent = map[Kind]bool{
	Sim:         false,
	Corrupt:     true,
	Invariant:   true,
	Stalled:     true,
	Deadline:    true,
	Panic:       true,
	Invalid:     true,
	Canceled:    true,
	Drain:       true,
	Quarantined: true,
}

// Permanent reports whether retrying a failure of this kind is pointless.
func (k Kind) Permanent() bool { return permanent[k] }

// Cell renders a failed report cell.
func (k Kind) Cell() string { return "n/a (" + string(k) + ")" }

// Of maps err to its kind: an ended context first (so a cancellation
// joined with the error being retried reads as canceled), then the
// outermost error in the chain that declares its kind, else Sim. Of(nil)
// is "".
func Of(err error) Kind {
	var k interface{ FailureKind() Kind }
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return Canceled
	case errors.Is(err, context.DeadlineExceeded):
		return Deadline
	case errors.As(err, &k):
		return k.FailureKind()
	}
	return Sim
}

// Ended reports whether err stems from a context that ended, canceled or
// past its deadline: the caller's run is over, so the error says nothing
// about the cell. Runners do not cache such failures, and the CLIs exit
// 130 on them.
func Ended(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Error is a failure reduced to its kind and message: a cluster worker's
// cell outcome on the wire, and a ddserve job's error. Error() is the
// message alone, so a remote failure classifies and renders exactly like
// the local one it was made from.
type Error struct {
	Kind    Kind   `json:"kind"`
	Message string `json:"message"`
}

// From reduces err to an *Error (nil for nil).
func From(err error) *Error {
	if err == nil {
		return nil
	}
	return &Error{Kind: Of(err), Message: err.Error()}
}

// Error implements error.
func (e *Error) Error() string { return e.Message }

// FailureKind declares the carried kind.
func (e *Error) FailureKind() Kind { return e.Kind }
