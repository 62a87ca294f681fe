package workloads

// Trace providers: the workload-side half of the streaming trace plane,
// and the process's one trace memo. Provider resolves a (workload, scale)
// trace under a strategy and memoizes it process-wide, keyed by
// (workload, scale, SpoolDir, MaxMem):
//
//	SpoolDir set → generate once, streaming straight to a v3 spool file
//	               (hash folded inline); every open re-reads the disk.
//	otherwise    → one budgeted pass: the VM runs on the caller's
//	               goroutine and records buffer while they fit MaxMem
//	               (<= 0: no budget), yielding a *trace.Buffer. A trace
//	               that outgrows the budget has its buffered prefix hashed
//	               and dropped, finishes the pass hash-only, and is served
//	               by deterministic regeneration on every open.
//
// All strategies yield Providers with equal ContentHash for the same
// (workload, scale), so results — and the store keys deriving from the
// hash — are interchangeable across them. TraceCached reads the same memo
// (its unbudgeted entries); FlushCache empties it; nothing else evicts.

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
)

// recordMemBytes is the in-memory footprint of one buffered trace record,
// the unit MaxMem budgets are measured in.
const recordMemBytes = int64(unsafe.Sizeof(trace.Record{}))

// ProviderOptions selects the trace-plane strategy (see the file comment).
// The zero value buffers the whole trace in memory.
type ProviderOptions struct {
	// SpoolDir, when non-empty, spools the trace to
	// <dir>/<name>-<scale>.trace during its first generation pass and
	// serves every open from disk. An already-complete spool from a prior
	// process is validated and reused without regeneration.
	SpoolDir string
	// MaxMem bounds the in-memory trace footprint in bytes (<= 0: no
	// budget; ignored when SpoolDir is set). A trace that fits is
	// buffered; one that does not is served by deterministic regeneration.
	MaxMem int64
}

// memoKey identifies one memoized trace: its generator and the strategy
// holding it (MaxMem normalized to 0 wherever it does not apply).
type memoKey struct {
	name   string
	scale  int
	spool  string
	maxMem int64
}

// memoEntry is one memoized generation. The per-entry once makes
// concurrent callers for one key wait on a single generation instead of
// racing heap-heavy VM runs, without holding the memo lock across it.
type memoEntry struct {
	once sync.Once
	prov trace.Provider
	out  []int32 // program output (nil for spooled traces)
	err  error
}

var (
	memoMu sync.Mutex
	memo   = map[memoKey]*memoEntry{}
)

// program builds the workload for one generation pass; the
// trace-generation fault point fires here.
func (w *Workload) program(scale int) (*isa.Program, error) {
	if faultinject.Enabled() {
		if err := faultinject.Check(faultinject.PointTraceGen); err != nil {
			return nil, fmt.Errorf("workloads: generating %s trace: %w", w.Name, err)
		}
	}
	return w.Build(scale)
}

// Stream builds the workload and starts a live generation stream: records
// arrive as the VM executes them, through a bounded pipe. The stream must
// be consumed (or Closed) to release the VM goroutine.
func (w *Workload) Stream(ctx context.Context, scale int) (*vm.TraceStream, error) {
	prog, err := w.program(scale)
	if err != nil {
		return nil, err
	}
	ts, err := vm.StreamTrace(ctx, prog, 0, vm.WithMaxSteps(1<<31))
	if err != nil {
		return nil, fmt.Errorf("workloads: running %s: %w", w.Name, err)
	}
	return ts, nil
}

// Provider returns the workload's trace at the given scale (0 =
// DefaultScale) under the chosen strategy, generating it at most once per
// process for each (scale, options). Concurrent callers for one trace
// share the first caller's generation pass, which that caller's ctx
// bounds. The memoized provider never captures ctx: a regeneration an
// Open triggers is stopped by closing its stream.
func (w *Workload) Provider(ctx context.Context, scale int, opt ProviderOptions) (trace.Provider, error) {
	e, err := w.memoized(ctx, scale, opt)
	if err != nil {
		return nil, err
	}
	return e.prov, nil
}

// memoized looks up (or generates) the memo entry for one trace. Failed
// generations are evicted, so a later caller — with a live context, or
// after a transient fault — generates again.
func (w *Workload) memoized(ctx context.Context, scale int, opt ProviderOptions) (*memoEntry, error) {
	if scale <= 0 {
		scale = w.DefaultScale
	}
	if opt.SpoolDir != "" || opt.MaxMem < 0 {
		opt.MaxMem = 0
	}
	key := memoKey{w.Name, scale, opt.SpoolDir, opt.MaxMem}
	memoMu.Lock()
	e, ok := memo[key]
	if !ok {
		e = &memoEntry{}
		memo[key] = e
	}
	memoMu.Unlock()
	e.once.Do(func() {
		if opt.SpoolDir != "" {
			e.prov, e.err = w.spoolProvider(ctx, scale, opt.SpoolDir)
		} else {
			e.prov, e.out, e.err = w.generate(ctx, scale, opt.MaxMem)
		}
	})
	if e.err != nil {
		memoMu.Lock()
		if memo[key] == e {
			delete(memo, key)
		}
		memoMu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// SpoolPath reports where Provider spools this workload's trace at the
// given scale (0 = DefaultScale) under dir.
func (w *Workload) SpoolPath(dir string, scale int) string {
	if scale <= 0 {
		scale = w.DefaultScale
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%d.trace", w.Name, scale))
}

// spoolProvider reuses a complete spool if one exists (validated by its
// record checksums) and otherwise generates one in a single streaming
// pass, hash folded inline — the trace never exists in memory.
func (w *Workload) spoolProvider(ctx context.Context, scale int, dir string) (trace.Provider, error) {
	path := w.SpoolPath(dir, scale)
	if sp, err := trace.OpenSpool(path); err == nil {
		return sp, nil
	}
	// Missing, truncated, or corrupt: regenerate. The commit rename
	// atomically replaces whatever was there.
	ts, err := w.Stream(ctx, scale)
	if err != nil {
		return nil, err
	}
	sp, err := trace.SpoolFrom(path, ts)
	if err != nil {
		trace.CloseSource(ts)
		return nil, fmt.Errorf("workloads: spooling %s: %w", w.Name, err)
	}
	return sp, nil
}

// generate is the budgeted pass. The VM runs on the caller's goroutine
// through a sink, as vm.Trace does, buffering records while they fit
// maxMem bytes (<= 0: no budget) and hashing nothing eagerly. Crossing the
// budget hashes the buffered prefix, drops it, and finishes the pass
// hash-only; the trace is then served by regeneration on every Open.
func (w *Workload) generate(ctx context.Context, scale int, maxMem int64) (trace.Provider, []int32, error) {
	prog, err := w.program(scale)
	if err != nil {
		return nil, nil, err
	}
	fits := int64(math.MaxInt64) // records the budget holds
	if maxMem > 0 {
		fits = maxMem / recordMemBytes
	}
	buf := &trace.Buffer{}
	var hs *trace.Hasher
	sink := func(r *trace.Record) {
		switch {
		case hs != nil:
			hs.WriteRecord(r)
		case int64(buf.Len()) >= fits:
			hs = trace.NewHasher()
			for i := 0; i < buf.Len(); i++ {
				hs.WriteRecord(buf.At(i))
			}
			buf = nil
			hs.WriteRecord(r)
		default:
			buf.Append(*r)
		}
	}
	out, err := vm.Exec(prog, vm.WithMaxSteps(1<<31), vm.WithContext(ctx), vm.WithSink(sink))
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: running %s: %w", w.Name, err)
	}
	if hs == nil {
		return buf, out, nil
	}
	// The regenerator must not capture ctx, because the memo outlives this
	// call. Consumers stop a regeneration with trace.CloseSource.
	return trace.NewRegenProviderHashed(func() (trace.ErrSource, error) {
		return w.Stream(context.Background(), scale)
	}, hs.Sum64(), hs.Records()), out, nil
}
