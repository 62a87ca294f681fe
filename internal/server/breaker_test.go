package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// stubStore is a scriptable ResultStore for breaker unit tests. It is
// mutex-guarded because the breaker's recovery flush goroutine reaches it
// concurrently with test-thread calls.
type stubStore struct {
	mu     sync.Mutex
	getErr error
	putErr error
	gets   int
	puts   int
	m      map[store.Key]*core.Result
}

func newStubStore() *stubStore { return &stubStore{m: make(map[store.Key]*core.Result)} }

func (s *stubStore) Get(k store.Key) (*core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.getErr != nil {
		return nil, s.getErr
	}
	if res, ok := s.m[k]; ok {
		return res, nil
	}
	return nil, fmt.Errorf("%w: absent", store.ErrMiss)
}

func (s *stubStore) PutWithPerf(k store.Key, res *core.Result, _ *store.PerfInfo) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.putErr != nil {
		return s.putErr
	}
	s.m[k] = res
	return nil
}

// setPutErr / counters / stored: synchronized accessors for tests.
func (s *stubStore) setPutErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putErr = err
}

func (s *stubStore) counters() (gets, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts
}

func (s *stubStore) stored(k store.Key) *core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *stubStore) Stats() store.Stats { return store.Stats{} }

func key(n int) store.Key {
	return store.Key{Workload: "w", Config: fmt.Sprintf("cfg-%d", n), Width: 8, Scale: 1}
}

func res(cycles int64) *core.Result { return &core.Result{Cycles: cycles, Instructions: 100} }

// fakeClock drives the breaker's injectable clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(inner *stubStore, threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(inner, threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	inner := newStubStore()
	b, _ := newTestBreaker(inner, 3, time.Minute)
	inner.putErr = errors.New("disk: write failed")

	for i := 0; i < 2; i++ {
		if err := b.PutWithPerf(key(i), res(10), nil); err == nil {
			t.Fatal("failing Put reported success while breaker closed")
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed (threshold 3)", got)
	}
	if err := b.PutWithPerf(key(2), res(10), nil); err == nil {
		t.Fatal("tripping Put reported success")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if st := b.BreakerStats(); st.Trips != 1 {
		t.Fatalf("trips = %d, want 1", st.Trips)
	}

	// Open: no disk traffic. Writes degrade to the fallback cache and
	// report success; reads of stashed entries hit the cache.
	gets, puts := inner.gets, inner.puts
	if err := b.PutWithPerf(key(9), res(42), nil); err != nil {
		t.Fatalf("degraded Put while open: %v", err)
	}
	got, err := b.Get(key(9))
	if err != nil || got.Cycles != 42 {
		t.Fatalf("fallback read = %v, %v; want stashed result", got, err)
	}
	if inner.gets != gets || inner.puts != puts {
		t.Fatal("open breaker still reached the disk")
	}

	// Reads of never-stashed entries are fast misses wrapping store.ErrMiss.
	// (key(0..2) were stashed by the failing Puts above — a failed write
	// keeps its result readable in-process.)
	if _, err := b.Get(key(100)); !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, store.ErrMiss) {
		t.Fatalf("open-breaker miss = %v; want ErrBreakerOpen wrapping ErrMiss", err)
	}
}

func TestBreakerMissesAndCorruptEntriesDoNotTrip(t *testing.T) {
	inner := newStubStore()
	b, _ := newTestBreaker(inner, 1, time.Minute)
	for i := 0; i < 10; i++ {
		if _, err := b.Get(key(i)); !errors.Is(err, store.ErrMiss) {
			t.Fatalf("get(%d) = %v, want miss", i, err)
		}
	}
	inner.getErr = fmt.Errorf("%w: bad checksum", store.ErrCorruptEntry)
	if _, err := b.Get(key(0)); !errors.Is(err, store.ErrCorruptEntry) {
		t.Fatalf("corrupt get = %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v after misses/corruption, want closed (threshold 1)", got)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	inner := newStubStore()
	b, _ := newTestBreaker(inner, 3, time.Minute)
	boom := errors.New("disk: transient")
	for i := 0; i < 5; i++ {
		// Synchronized setter: each success kicks the recovery flusher,
		// which reaches the stub concurrently.
		inner.setPutErr(boom)
		b.PutWithPerf(key(i), res(1), nil) // one failure...
		inner.setPutErr(nil)
		b.PutWithPerf(key(i), res(1), nil) // ...never two in a row
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v; interleaved successes must reset the streak", got)
	}
}

func TestBreakerHalfOpenProbeClosesOnSuccess(t *testing.T) {
	inner := newStubStore()
	b, clk := newTestBreaker(inner, 1, time.Minute)
	inner.putErr = errors.New("disk: write failed")
	b.PutWithPerf(key(0), res(1), nil)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}

	// Cooldown not yet elapsed: still open, still no disk traffic.
	clk.advance(59 * time.Second)
	puts := inner.puts
	b.PutWithPerf(key(1), res(1), nil)
	if inner.puts != puts {
		t.Fatal("breaker probed before the cooldown elapsed")
	}

	// Cooldown elapsed: exactly one probe reaches the (now healthy) disk
	// and its success closes the breaker.
	clk.advance(2 * time.Second)
	inner.putErr = nil
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if err := b.PutWithPerf(key(2), res(7), nil); err != nil {
		t.Fatalf("probe put: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if _, err := b.Get(key(2)); err != nil {
		t.Fatalf("closed-breaker read of probed write: %v", err)
	}
}

func TestBreakerHalfOpenProbeReopensOnFailure(t *testing.T) {
	inner := newStubStore()
	b, clk := newTestBreaker(inner, 1, time.Minute)
	inner.putErr = errors.New("disk: write failed")
	b.PutWithPerf(key(0), res(1), nil)
	clk.advance(61 * time.Second)

	// Probe fails: reopen for a fresh cooldown.
	b.PutWithPerf(key(1), res(1), nil)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	puts := inner.puts
	b.PutWithPerf(key(2), res(1), nil)
	if inner.puts != puts {
		t.Fatal("reopened breaker let traffic through before the new cooldown")
	}

	// And the next cooldown's probe can still recover.
	clk.advance(61 * time.Second)
	inner.putErr = nil
	if err := b.PutWithPerf(key(3), res(1), nil); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after recovery probe = %v, want closed", got)
	}
}

func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	inner := newStubStore()
	b, clk := newTestBreaker(inner, 1, time.Minute)
	inner.putErr = errors.New("disk: write failed")
	b.PutWithPerf(key(0), res(1), nil)
	clk.advance(61 * time.Second)

	// First allow() in half-open is the probe; a second concurrent call
	// must be refused until the probe resolves.
	ok, probe := b.allow()
	if !ok || !probe {
		t.Fatalf("first half-open allow = (%v, %v), want probe", ok, probe)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("second allow admitted while a probe is in flight")
	}
	b.record(false, true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v after probe success", got)
	}
}

func TestBreakerFallbackCacheIsBounded(t *testing.T) {
	inner := newStubStore()
	b, _ := newTestBreaker(inner, 1, time.Minute)
	inner.putErr = errors.New("disk: write failed")
	b.PutWithPerf(key(0), res(1), nil) // trip

	for i := 0; i < fallbackCap+100; i++ {
		b.PutWithPerf(key(i), res(int64(i)), nil)
	}
	if st := b.BreakerStats(); st.CachedEntries != fallbackCap {
		t.Fatalf("cache size = %d, want cap %d", st.CachedEntries, fallbackCap)
	}
	// FIFO: the oldest stash is gone, the newest survives.
	if _, err := b.Get(key(0)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("oldest entry survived eviction: %v", err)
	}
	if got, err := b.Get(key(fallbackCap + 99)); err != nil || got.Cycles != int64(fallbackCap+99) {
		t.Fatalf("newest entry = %v, %v", got, err)
	}
}

// waitFlush polls until the breaker's fallback cache drains (or the
// deadline passes), returning the final stats.
func waitFlush(t *testing.T, b *Breaker) BreakerStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := b.BreakerStats()
		if st.CachedEntries == 0 || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBreakerFlushOnRecovery: entries stashed in the fallback cache while
// the breaker was open must be written back to the store once the
// half-open probe succeeds — an outage defers durability, it does not
// forfeit it.
func TestBreakerFlushOnRecovery(t *testing.T) {
	inner := newStubStore()
	b, clk := newTestBreaker(inner, 1, time.Minute)
	inner.setPutErr(errors.New("disk: write failed"))
	b.PutWithPerf(key(0), res(10), nil) // trip; the failed write is stashed
	for i := 1; i <= 3; i++ {
		if err := b.PutWithPerf(key(i), res(int64(10*i)), nil); err != nil {
			t.Fatalf("degraded put %d: %v", i, err)
		}
	}
	if st := b.BreakerStats(); st.CachedEntries != 4 {
		t.Fatalf("cached = %d, want 4", st.CachedEntries)
	}

	// Disk heals; the cooldown elapses; a successful probe closes the
	// breaker and must trigger the write-back.
	inner.setPutErr(nil)
	clk.advance(61 * time.Second)
	if err := b.PutWithPerf(key(9), res(99), nil); err != nil {
		t.Fatalf("probe put: %v", err)
	}
	st := waitFlush(t, b)
	if st.CachedEntries != 0 || st.FlushedWrites != 4 {
		t.Fatalf("after recovery: %+v, want 0 cached / 4 flushed", st)
	}
	for i := 0; i <= 3; i++ {
		want := int64(10)
		if i > 0 {
			want = int64(10 * i)
		}
		got := inner.stored(key(i))
		if got == nil || got.Cycles != want {
			t.Fatalf("flushed entry %d = %+v, want cycles %d on disk", i, got, want)
		}
	}
}

// TestBreakerFlushReopensWhenDiskStillBad: a flush write that fails feeds
// the state machine like foreground traffic — the breaker re-opens and the
// un-flushed entries stay cached for the next recovery.
func TestBreakerFlushReopensWhenDiskStillBad(t *testing.T) {
	inner := newStubStore()
	b, clk := newTestBreaker(inner, 1, time.Minute)
	inner.setPutErr(errors.New("disk: write failed"))
	b.PutWithPerf(key(0), res(1), nil) // trip
	b.PutWithPerf(key(1), res(2), nil) // degraded stash

	// The disk "heals" just long enough for the probe (a read), then
	// writes keep failing: the flush must stop and re-open the breaker.
	clk.advance(61 * time.Second)
	if _, err := b.Get(key(50)); !errors.Is(err, store.ErrMiss) {
		t.Fatalf("probe get = %v, want plain miss", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.State() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-opened; state %v, stats %+v", b.State(), b.BreakerStats())
		}
		time.Sleep(time.Millisecond)
	}
	st := b.BreakerStats()
	if st.CachedEntries != 2 || st.FlushedWrites != 0 {
		t.Fatalf("after failed flush: %+v, want both entries still cached", st)
	}

	// Full recovery on the next cooldown drains the debt.
	inner.setPutErr(nil)
	clk.advance(61 * time.Second)
	if _, err := b.Get(key(50)); !errors.Is(err, store.ErrMiss) {
		t.Fatalf("second probe get = %v", err)
	}
	st = waitFlush(t, b)
	if st.CachedEntries != 0 || st.FlushedWrites != 2 {
		t.Fatalf("after second recovery: %+v, want 0 cached / 2 flushed", st)
	}
	if got := inner.stored(key(1)); got == nil || got.Cycles != 2 {
		t.Fatalf("stashed entry not flushed: %+v", got)
	}
}
