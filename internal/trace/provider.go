package trace

// Provider abstracts *where trace records come from* so every layer above
// the scheduler can re-open a trace as a fresh stream instead of sharing
// one materialized Buffer. Three implementations cover the memory ladder:
//
//   - *Buffer: fully in memory — the right choice whenever the trace fits
//     (seed scales, a workload under its memory budget, generated test
//     traces); its content hash is memoized after the first pass;
//   - *Spool: on disk in the v3 binary format, written once during the
//     first pass with the FNV content hash folded inline, then re-read
//     with one 64 KiB block of memory per open;
//   - *RegenProvider: nothing retained at all — every open deterministically
//     re-runs the generator (a VM execution, a tracegen profile) through a
//     bounded pipe, so generation overlaps consumption.
//
// The contract every implementation honors:
//
//   - Open may be called any number of times, concurrently, and each call
//     yields an independent stream positioned at the first record;
//   - ContentHash reports the same (hash, record count) the ContentHash
//     function would compute over one full stream, computing it at most
//     once — implementations that must pay a pass to learn it (a spool's
//     first write, a regenerator's first run) fold it inline during that
//     pass, never in a second one;
//   - two Providers with equal ContentHash yield byte-identical record
//     sequences, so simulation results are interchangeable across
//     implementations (the provider-equivalence property tests pin this).

import "fmt"

// Provider is a trace that can be opened as a fresh stream any number of
// times and reports a streaming-computed content hash.
type Provider interface {
	// Open returns a fresh ErrSource positioned at the first record. The
	// stream honors the error-handling contract: consumers must check Err
	// once Next returns false. Streams that hold resources (an open spool
	// file, a live generator goroutine) release them when the stream ends
	// or errors; a consumer abandoning a stream early should close it via
	// CloseSource.
	Open() (ErrSource, error)
	// ContentHash reports the trace's 64-bit FNV-1a content hash and its
	// record count, computing them at most once.
	ContentHash() (uint64, int64, error)
}

// CloseSource releases src's resources if it exposes a Close method. It is
// the polite way to abandon a Provider stream before exhausting it; streams
// consumed to the end release themselves.
func CloseSource(src Source) {
	if c, ok := src.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// Open implements Provider: a fresh reader over the buffer.
func (b *Buffer) Open() (ErrSource, error) { return b.Reader(), nil }

// bufferHash is a Buffer's memoized content hash and the record count it
// covers.
type bufferHash struct {
	hash uint64
	n    int
}

// ContentHash implements Provider (in-memory buffers cannot fail). The
// first call pays one pass; later calls answer from a memo that covers
// the record count it hashed, so an Append since then invalidates it.
// Concurrent callers are safe (the memo is swapped atomically); as with
// every Buffer read, Append must not run concurrently.
func (b *Buffer) ContentHash() (uint64, int64, error) {
	if m := b.hashed.Load(); m != nil && m.n == b.n {
		return m.hash, int64(m.n), nil
	}
	h, n, _ := ContentHash(b.Reader())
	b.hashed.Store(&bufferHash{hash: h, n: int(n)})
	return h, n, nil
}

// RegenProvider is a Provider that retains nothing: every Open re-runs a
// deterministic generator. Use it when re-generation is cheaper than the
// memory or disk a materialized copy would cost — the paper-scale regime.
//
// The generator must be deterministic: every call must yield the identical
// record sequence. ContentHash verifies nothing by itself (it hashes one
// run); the provider-equivalence tests are where determinism is enforced.
type RegenProvider struct {
	// Gen opens one fresh generation stream.
	Gen func() (ErrSource, error)

	hashed bool
	hash   uint64
	n      int64
}

// NewRegenProvider wraps a deterministic stream generator.
func NewRegenProvider(gen func() (ErrSource, error)) *RegenProvider {
	return &RegenProvider{Gen: gen}
}

// NewRegenProviderHashed wraps a generator whose content hash and record
// count are already known (computed inline during a prior pass), so
// ContentHash never costs a run.
func NewRegenProviderHashed(gen func() (ErrSource, error), hash uint64, records int64) *RegenProvider {
	return &RegenProvider{Gen: gen, hashed: true, hash: hash, n: records}
}

// Open implements Provider.
func (p *RegenProvider) Open() (ErrSource, error) { return p.Gen() }

// ContentHash implements Provider. The first call pays one generation run;
// the result is memoized. Not safe for concurrent first use — a
// RegenProvider shared across goroutines must be built hashed
// (NewRegenProviderHashed, as workloads.Provider does) or hashed once
// before fanning out.
func (p *RegenProvider) ContentHash() (uint64, int64, error) {
	if p.hashed {
		return p.hash, p.n, nil
	}
	src, err := p.Gen()
	if err != nil {
		return 0, 0, err
	}
	h, n, err := ContentHash(src)
	if err != nil {
		CloseSource(src)
		return 0, n, err
	}
	p.hash, p.n, p.hashed = h, n, true
	return h, n, nil
}

// Records reports the record count if already known without paying a pass.
func (p *RegenProvider) Records() (int64, bool) { return p.n, p.hashed }

// ProviderRecords reports p's record count, avoiding a streaming pass
// whenever the implementation already knows it: buffers count in O(1),
// spools and pre-hashed regenerators carry the count from their write/hash
// pass. Only an unhashed regenerator pays a full generation run (via
// ContentHash, so the pass is not wasted — the hash memoizes).
func ProviderRecords(p Provider) (int64, error) {
	switch t := p.(type) {
	case *Buffer:
		return int64(t.Len()), nil
	case *Spool:
		return t.Records(), nil
	case *RegenProvider:
		if n, ok := t.Records(); ok {
			return n, nil
		}
	}
	_, n, err := p.ContentHash()
	return n, err
}

// DrainChecked consumes src into a new Buffer, honoring the error-handling
// contract: a source that fails mid-stream (a truncated binary trace, a
// fault-injected generator) returns the error instead of a silently short
// buffer. Callers reading external input must use this over Drain — Drain
// is only safe on sources that cannot fail (Buffer readers, tracegen).
func DrainChecked(src Source) (*Buffer, error) {
	b := Drain(src)
	if err := SourceErr(src); err != nil {
		return nil, fmt.Errorf("trace: drain failed after %d records: %w", b.Len(), err)
	}
	return b, nil
}
