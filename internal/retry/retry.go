// Package retry implements bounded retry with exponential backoff and
// jitter for transiently failing simulation cells. Whether a failure is
// worth another attempt is the failure taxonomy's call, not this
// package's: Do stops on any error whose kind (failure.Of) is permanent —
// every kind but sim, cancellation included — and retries the rest. The
// table is in internal/failure and, in prose, docs/robustness.md §6.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/failure"
)

// Process-wide attempt counters, bridged into the serving metrics
// registry (retry_attempts_total / retry_backoffs_total on /metrics).
// Package atomics rather than injected handles: Do is a free function
// called from half a dozen layers, and the taxonomy is process-global.
var (
	totalAttempts atomic.Int64 // fn invocations (first tries included)
	totalBackoffs atomic.Int64 // backoff sleeps taken (i.e. re-attempts granted)
)

// Attempts reports how many retryable-operation attempts have run
// process-wide since start.
func Attempts() int64 { return totalAttempts.Load() }

// Backoffs reports how many backoff waits (re-attempts granted to a
// transient failure) have been taken process-wide since start.
func Backoffs() int64 { return totalBackoffs.Load() }

// Policy bounds the retry loop. The zero Policy means one attempt, no
// retry; fields default individually so callers set only what they need.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included);
	// <= 0 means 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; 0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means 2s.
	MaxDelay time.Duration
	// Multiplier grows the backoff between attempts; <= 1 means 2.
	Multiplier float64
	// Jitter spreads each delay uniformly over ±Jitter×delay; negative
	// disables jitter, 0 means the default 0.25. Jitter keeps a worker
	// pool's retries from resynchronizing into thundering herds.
	Jitter float64
	// Seed drives the jitter; 0 seeds from the clock. Tests pin it.
	Seed int64
	// Sleep overrides the backoff wait when non-nil (tests record delays
	// instead of sleeping). It must honor ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.25
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Seed == 0 {
		p.Seed = time.Now().UnixNano()
	}
	if p.Sleep == nil {
		p.Sleep = sleep
	}
	return p
}

// sleep waits for d or until ctx ends, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs fn (attempt numbers start at 1) until it succeeds, fails with a
// permanent kind, or exhausts the attempt budget. It returns the
// number of attempts actually made alongside the final error.
//
// A cancellation that lands during a backoff wait is joined with the last
// attempt's error, so callers see both why the loop was waiting and why it
// stopped.
func Do(ctx context.Context, p Policy, fn func(attempt int) error) (attempts int, err error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		totalAttempts.Add(1)
		err = fn(attempt)
		if err == nil {
			return attempt, nil
		}
		if attempt >= p.MaxAttempts {
			return attempt, err
		}
		if failure.Of(err).Permanent() {
			return attempt, err
		}
		d := delay
		if p.Jitter > 0 {
			// Uniform over [d×(1−J), d×(1+J)].
			d = time.Duration(float64(d) * (1 - p.Jitter + 2*p.Jitter*rng.Float64()))
		}
		totalBackoffs.Add(1)
		if serr := p.Sleep(ctx, d); serr != nil {
			return attempt, errors.Join(serr, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			// Belt and braces for Sleep overrides: even a Sleep that
			// ignored the cancellation must not keep the loop retrying.
			return attempt, errors.Join(cerr, err)
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
