package failure_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/failure"
)

// kinded declares its own kind, as the pipeline's typed errors do.
type kinded failure.Kind

func (k kinded) Error() string             { return "kinded " + string(k) }
func (k kinded) FailureKind() failure.Kind { return failure.Kind(k) }

// TestPermanence pins the permanence table: sim is the one transient kind,
// and a kind the table does not know is transient too.
func TestPermanence(t *testing.T) {
	for _, k := range []failure.Kind{failure.Corrupt, failure.Invariant, failure.Stalled,
		failure.Deadline, failure.Panic, failure.Invalid, failure.Canceled, failure.Drain,
		failure.Quarantined} {
		if !k.Permanent() {
			t.Errorf("%q is transient, want permanent", k)
		}
	}
	for _, k := range []failure.Kind{failure.Sim, "from-a-newer-worker"} {
		if k.Permanent() {
			t.Errorf("%q is permanent, want transient", k)
		}
	}
}

// TestOf pins the classifier's precedence: an ended context first, then
// the outermost declared kind, else sim.
func TestOf(t *testing.T) {
	cases := []struct {
		err  error
		want failure.Kind
	}{
		{nil, ""},
		{errors.New("plain"), failure.Sim},
		{fmt.Errorf("wrapped: %w", kinded(failure.Corrupt)), failure.Corrupt},
		{fmt.Errorf("outer: %w", fmt.Errorf("%w: %w", kinded(failure.Panic), kinded(failure.Corrupt))), failure.Panic},
		{fmt.Errorf("run: %w", context.Canceled), failure.Canceled},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), failure.Deadline},
		{errors.Join(context.Canceled, kinded(failure.Invariant)), failure.Canceled},
		{&failure.Error{Kind: failure.Stalled, Message: "m"}, failure.Stalled},
	}
	for _, c := range cases {
		if got := failure.Of(c.err); got != c.want {
			t.Errorf("Of(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestErrorRendersItsMessageAlone: a failure reduced to kind and message
// classifies and renders exactly like the error it was made from.
func TestErrorRendersItsMessageAlone(t *testing.T) {
	orig := fmt.Errorf("core: scheduling instruction 7: %w", kinded(failure.Invariant))
	e := failure.From(orig)
	if e.Error() != orig.Error() || failure.Of(e) != failure.Of(orig) {
		t.Fatalf("From(%v) = %+v", orig, e)
	}
	if failure.From(nil) != nil {
		t.Fatal("From(nil) must be nil")
	}
	if got := failure.Deadline.Cell(); got != "n/a (deadline)" {
		t.Fatalf("Cell = %q", got)
	}
}
