// Package faultinject provides deterministic fault injection for the
// simulation pipeline, in three pieces:
//
//   - a process-wide injection-point registry (Arm / Check) that lets tests
//     force failures at named points inside trace generation, cache
//     simulation, and experiment runs without plumbing test hooks through
//     every signature;
//   - a seeded trace.Source wrapper (Source) that corrupts a record stream
//     in controlled, reproducible ways — bit flips, early truncation,
//     dropped and duplicated records, delayed Err();
//   - byte-level corrupters (Corrupt) for binary trace images, covering the
//     header and record corruption classes the trace.Reader must detect.
//
// Everything is deterministic: the same seed and plan produce the same
// faults, so failure-path tests are as reproducible as the simulator runs
// they harden.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Injection-point names compiled into the pipeline. A point costs one
// atomic load when the registry is empty, so production paths stay fast.
const (
	// PointTraceGen fires inside workload trace generation (Workload.Run).
	PointTraceGen = "workloads.trace.generate"
	// PointCacheSim fires on cache-model accesses inside the scheduler's
	// load path (only when a cache is configured).
	PointCacheSim = "core.cache.access"
	// PointCoreRun fires once per instruction each back end of a
	// core.Bank schedules (core.RunChecked is a bank of one).
	PointCoreRun = "core.run.visit"
	// PointExperiment fires at the start of every experiment cell
	// computation (Runner.Result, and each cell of a Prefetch bank).
	PointExperiment = "experiments.run.result"
	// PointStoreGet fires on result-store reads behind the serving
	// layer's circuit breaker (internal/server); chaos campaigns arm it to
	// simulate a failing disk.
	PointStoreGet = "server.store.get"
	// PointStorePut fires on result-store writes behind the breaker.
	PointStorePut = "server.store.put"
)

var (
	armed    atomic.Int32 // number of armed points; fast-path gate
	regMu    sync.Mutex
	registry = map[string]*point{}
)

type point struct {
	err   error
	fn    func() error // optional; called (outside the lock) when the point fires
	after int64        // checks to let through before firing
	hits  int64
	fired int64
	once  bool
}

// Enabled reports whether any injection point is armed. Call sites guard
// Check with it so the disabled cost is a single atomic load.
func Enabled() bool { return armed.Load() > 0 }

// Arm makes Check(name) return err on every call after the first `after`
// calls have passed through. Arming an already-armed point replaces it.
func Arm(name string, err error, after int64) { arm(name, err, nil, after, false) }

// ArmOnce is Arm, but the point fires exactly once and then stands down.
func ArmOnce(name string, err error, after int64) { arm(name, err, nil, after, true) }

// ArmFunc makes the point call fn each time it fires and inject fn's
// return value. fn runs OUTSIDE the registry lock, so it may block (the
// watchdog tests wedge a cell this way) without deadlocking concurrent
// Check callers at other points. fn returning nil injects nothing.
func ArmFunc(name string, fn func() error, after int64) { arm(name, nil, fn, after, false) }

// ArmOnceFunc is ArmFunc, but the point fires exactly once.
func ArmOnceFunc(name string, fn func() error, after int64) { arm(name, nil, fn, after, true) }

func arm(name string, err error, fn func() error, after int64, once bool) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[name]; !exists {
		armed.Add(1)
	}
	registry[name] = &point{err: err, fn: fn, after: after, once: once}
}

// Disarm removes one injection point.
func Disarm(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[name]; exists {
		delete(registry, name)
		armed.Add(-1)
	}
}

// Reset disarms every injection point. Tests defer it.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for name := range registry {
		delete(registry, name)
	}
	armed.Store(0)
}

// Check consults the registry at a named injection point, returning the
// armed error when the point fires. Call sites should gate on Enabled().
// Func-armed points run their fn after the registry lock is released, so a
// blocking fn (wedging one cell to exercise the watchdog) cannot stall
// Check callers at other points.
func Check(name string) error {
	if !Enabled() {
		return nil
	}
	regMu.Lock()
	p := registry[name]
	if p == nil {
		regMu.Unlock()
		return nil
	}
	p.hits++
	if p.hits <= p.after || (p.once && p.fired > 0) {
		regMu.Unlock()
		return nil
	}
	p.fired++
	err, fn := p.err, p.fn
	regMu.Unlock()
	if fn != nil {
		return fn()
	}
	return err
}

// Hits reports how many times a point has been consulted (armed points
// only); observability for tests asserting a path was actually exercised.
func Hits(name string) int64 {
	regMu.Lock()
	defer regMu.Unlock()
	if p := registry[name]; p != nil {
		return p.hits
	}
	return 0
}

// Fired reports how many times a point has injected its error.
func Fired(name string) int64 {
	regMu.Lock()
	defer regMu.Unlock()
	if p := registry[name]; p != nil {
		return p.fired
	}
	return 0
}
