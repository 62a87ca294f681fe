package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/watchdog"
)

// TestClassify pins how Do reads the failure taxonomy: cancellations,
// corruption, invariant violations, stalls, panics and cell deadlines get
// one attempt; injected faults, unknown errors and kinds missing from the
// table are retried to the budget.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int // attempts out of a budget of 3
	}{
		{"canceled", context.Canceled, 1},
		{"deadline", context.DeadlineExceeded, 1},
		{"wrapped cancel", fmt.Errorf("cell: %w", context.Canceled), 1},
		{"corrupt trace", fmt.Errorf("read: %w", trace.ErrCorruptRecord), 1},
		{"bad magic", trace.ErrBadMagic, 1},
		{"invariant", &core.InvariantError{Invariant: "issue-width", Cycle: 3}, 1},
		{"wrapped invariant", fmt.Errorf("run: %w", &core.InvariantError{}), 1},
		{"stalled", fmt.Errorf("cell: %w", watchdog.ErrStalled), 1},
		{"panic", &watchdog.PanicError{Value: "boom"}, 1},
		{"remote invariant", &failure.Error{Kind: failure.Invariant, Message: "m"}, 1},
		{"injected fault", faultinject.ErrInjected, 3},
		{"unknown", errors.New("mystery"), 3},
		{"remote sim", &failure.Error{Kind: failure.Sim, Message: "m"}, 3},
		{"unknown kind", &failure.Error{Kind: "from-the-future", Message: "m"}, 3},
	}
	for _, tc := range cases {
		p := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
		if got, _ := Do(context.Background(), p, func(int) error { return tc.err }); got != tc.want {
			t.Errorf("%s: %d attempts, want %d", tc.name, got, tc.want)
		}
	}
}

// TestTransientRetriedToSuccess: a fault that heals on the third attempt is
// retried twice with exponentially growing, jitter-bounded delays.
func TestTransientRetriedToSuccess(t *testing.T) {
	var delays []time.Duration
	p := Policy{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		Jitter:      0.25,
		Seed:        42,
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}
	calls := 0
	attempts, err := Do(context.Background(), p, func(attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt number %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return faultinject.ErrInjected
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d; want 3, 3", attempts, calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
	// Each delay must fall within ±Jitter of the nominal backoff.
	for i, nominal := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		lo := time.Duration(float64(nominal) * 0.75)
		hi := time.Duration(float64(nominal) * 1.25)
		if delays[i] < lo || delays[i] > hi {
			t.Errorf("delay %d = %v, want within [%v, %v]", i, delays[i], lo, hi)
		}
	}
}

// TestJitterIsDeterministicUnderSeed: pinned seeds reproduce delays exactly;
// different seeds diverge.
func TestJitterIsDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		p := Policy{
			MaxAttempts: 4,
			BaseDelay:   80 * time.Millisecond,
			Seed:        seed,
			Sleep: func(ctx context.Context, d time.Duration) error {
				delays = append(delays, d)
				return nil
			},
		}
		Do(context.Background(), p, func(int) error { return errors.New("always") })
		return delays
	}
	a, b := run(7), run(7)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("delay counts %d, %d; want 3, 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestBackoffCapsAtMaxDelay: with jitter disabled the delays are exactly
// base, base×m, …, capped at MaxDelay.
func TestBackoffCapsAtMaxDelay(t *testing.T) {
	var delays []time.Duration
	p := Policy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Multiplier:  2,
		Jitter:      -1, // disable
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}
	Do(context.Background(), p, func(int) error { return errors.New("always") })
	want := []time.Duration{10, 20, 40, 40, 40}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(delays) != len(want) {
		t.Fatalf("slept %d times, want %d", len(delays), len(want))
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("delay %d = %v, want %v", i, delays[i], want[i])
		}
	}
}

// TestPermanentFailsFast: corruption and invariant errors get exactly one
// attempt, no sleeping.
func TestPermanentFailsFast(t *testing.T) {
	for _, perm := range []error{
		fmt.Errorf("trace: %w", trace.ErrTruncated),
		fmt.Errorf("run: %w", &core.InvariantError{Invariant: "r", Cycle: 1}),
		fmt.Errorf("cell: %w", watchdog.ErrStalled),
	} {
		slept := 0
		p := Policy{
			MaxAttempts: 5,
			Sleep: func(ctx context.Context, d time.Duration) error {
				slept++
				return nil
			},
		}
		attempts, err := Do(context.Background(), p, func(int) error { return perm })
		if !errors.Is(err, perm) && err.Error() != perm.Error() {
			t.Fatalf("err = %v, want %v", err, perm)
		}
		if attempts != 1 || slept != 0 {
			t.Fatalf("%v: attempts = %d, sleeps = %d; want 1, 0", perm, attempts, slept)
		}
	}
}

// TestCanceledStopsImmediately: a context-cancellation failure from the
// operation itself is never retried.
func TestCanceledStopsImmediately(t *testing.T) {
	p := Policy{MaxAttempts: 5, Sleep: func(context.Context, time.Duration) error {
		t.Fatal("slept after cancellation")
		return nil
	}}
	attempts, err := Do(context.Background(), p, func(int) error {
		return fmt.Errorf("cell: %w", context.Canceled)
	})
	if attempts != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("attempts = %d, err = %v; want 1 attempt, context.Canceled", attempts, err)
	}
}

// TestExhaustionReturnsLastError: running out of attempts surfaces the final
// attempt's error.
func TestExhaustionReturnsLastError(t *testing.T) {
	p := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	attempts, err := Do(context.Background(), p, func(attempt int) error {
		return fmt.Errorf("attempt %d failed", attempt)
	})
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if err == nil || err.Error() != "attempt 3 failed" {
		t.Fatalf("err = %v, want the last attempt's error", err)
	}
}

// TestSleepCancellationJoinsErrors: cancellation during backoff reports
// both the cancellation and the error the loop was retrying.
func TestSleepCancellationJoinsErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("flaky")
	p := Policy{MaxAttempts: 5, Sleep: func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	attempts, err := Do(ctx, p, func(int) error { return boom })
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want both context.Canceled and the retried error", err)
	}
}

// TestZeroPolicyMeansOneAttempt: the zero value is a plain single attempt.
func TestZeroPolicyMeansOneAttempt(t *testing.T) {
	calls := 0
	attempts, err := Do(context.Background(), Policy{}, func(int) error {
		calls++
		return errors.New("nope")
	})
	if attempts != 1 || calls != 1 || err == nil {
		t.Fatalf("attempts = %d, calls = %d, err = %v; want single failing attempt", attempts, calls, err)
	}
}

// TestCancelDuringFirstBackoffReturnsImmediately: a cancellation that lands
// mid-sleep during the first backoff must abort the wait at once — the loop
// may not finish a multi-second sleep, and no further attempt may run.
func TestCancelDuringFirstBackoffReturnsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("transient wobble")
	calls := 0
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	attempts, err := Do(ctx, Policy{MaxAttempts: 5, BaseDelay: 30 * time.Second}, func(int) error {
		calls++
		return boom
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Do took %v; cancellation mid-backoff must return immediately", elapsed)
	}
	if attempts != 1 || calls != 1 {
		t.Fatalf("attempts = %d, calls = %d; want exactly one attempt", attempts, calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the retried error joined in", err)
	}
}

// TestSleepOverrideCannotOutliveCancellation: a custom Sleep that ignores
// the context (returns nil after cancellation) must not keep the retry loop
// alive — Do re-checks the context after every wait.
func TestSleepOverrideCannotOutliveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("flaky")
	p := Policy{MaxAttempts: 5, Sleep: func(context.Context, time.Duration) error {
		cancel() // cancellation lands mid-sleep, and this Sleep ignores it
		return nil
	}}
	attempts, err := Do(ctx, p, func(int) error { return boom })
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no attempt after cancellation)", attempts)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want both context.Canceled and the retried error", err)
	}
}
