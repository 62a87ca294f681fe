// Package workloads defines the six benchmark programs standing in for the
// paper's SPECINT92/95 traces (Table 1). Each workload is a MiniC program
// compiled at build time by the repository's own toolchain and executed on
// the SV8 emulator to produce a dynamic trace.
//
// The set mirrors the paper's split into "pointer chasing" benchmarks
// {li, go} — dominated by linked structures whose load addresses a stride
// predictor cannot learn — and "non pointer chasing" benchmarks
// {compress, espresso, eqntott, ijpeg} dominated by strided and hashed
// array access:
//
//	compress  LZW compression with an open-addressed hash dictionary
//	espresso  boolean cube-cover minimization (bitmask logic operations)
//	eqntott   truth-table construction and comparison-driven quicksort
//	li        cons-cell list interpreter: sorted insertion, assoc lookups
//	go        territory game: random moves, flood-fill liberty counting
//	ijpeg     8x8 integer DCT with quantization over a synthetic image
//
// All programs are deterministic (a linear congruential generator supplies
// their data) and self-checking: they out() checksums whose expected values
// tests pin down.
package workloads

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/trace"
)

// Workload is one benchmark program.
type Workload struct {
	Name           string
	Description    string
	PointerChasing bool
	DefaultScale   int
	// Source renders the MiniC program at a given scale (roughly, the
	// input size; dynamic instruction count grows with it).
	Source func(scale int) string
}

var all = []*Workload{
	compressWorkload,
	espressoWorkload,
	eqntottWorkload,
	liWorkload,
	goWorkload,
	ijpegWorkload,
}

// All returns the six workloads in the paper's Table 1 order.
func All() []*Workload { return all }

// ByName resolves a workload by name.
func ByName(name string) (*Workload, error) {
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// PointerChasingSet returns {li, go}, the paper's pointer-chasing subset.
func PointerChasingSet() []*Workload {
	var out []*Workload
	for _, w := range all {
		if w.PointerChasing {
			out = append(out, w)
		}
	}
	return out
}

// NonPointerChasingSet returns the complementary subset.
func NonPointerChasingSet() []*Workload {
	var out []*Workload
	for _, w := range all {
		if !w.PointerChasing {
			out = append(out, w)
		}
	}
	return out
}

// Build compiles and assembles the workload at the given scale (0 means
// DefaultScale).
func (w *Workload) Build(scale int) (*isa.Program, error) {
	if scale <= 0 {
		scale = w.DefaultScale
	}
	asmText, err := minic.Compile(w.Source(scale))
	if err != nil {
		return nil, fmt.Errorf("workloads: compiling %s: %w", w.Name, err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		return nil, fmt.Errorf("workloads: assembling %s: %w", w.Name, err)
	}
	return prog, nil
}

// Run builds and executes the workload, returning its dynamic trace and
// output stream.
func (w *Workload) Run(scale int) (*trace.Buffer, []int32, error) {
	return w.RunCtx(context.Background(), scale)
}

// RunCtx is Run with cancellation: the emulator polls ctx while executing,
// so multi-hundred-million instruction traces stay interruptible.
func (w *Workload) RunCtx(ctx context.Context, scale int) (*trace.Buffer, []int32, error) {
	prov, out, err := w.generate(ctx, scale, 0)
	if err != nil {
		return nil, nil, err
	}
	return prov.(*trace.Buffer), out, nil // an unbudgeted pass always buffers
}

// TraceCached returns the workload's trace at the given scale, generating
// it at most once per process. The returned buffer must be treated as
// read-only; use Buffer.Reader for replays.
func (w *Workload) TraceCached(scale int) (*trace.Buffer, []int32, error) {
	return w.TraceCachedCtx(context.Background(), scale)
}

// TraceCachedCtx is TraceCached with cancellation. It reads Provider's
// memo — the entry with zero ProviderOptions, which is always a Buffer —
// so only successful generations are cached.
func (w *Workload) TraceCachedCtx(ctx context.Context, scale int) (*trace.Buffer, []int32, error) {
	e, err := w.memoized(ctx, scale, ProviderOptions{})
	if err != nil {
		return nil, nil, err
	}
	return e.prov.(*trace.Buffer), e.out, nil
}

// FlushCache drops every memoized trace, whatever its strategy.
// Fault-injection tests use it to force regeneration after poisoning or
// un-poisoning the generation path.
func FlushCache() {
	memoMu.Lock()
	memo = map[memoKey]*memoEntry{}
	memoMu.Unlock()
}

// lcg is the MiniC pseudo-random generator shared by all workloads.
const lcg = `
var __seed = 987651;
func rnd() {
	__seed = __seed * 1103515245 + 12345;
	return (__seed >> 16) & 32767;
}
`
