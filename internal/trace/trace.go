// Package trace defines the dynamic instruction trace that connects the SV8
// emulator to the dependence simulator. A trace is a stream of Records, one
// per executed instruction (NOPs excluded, as in the paper), carrying the
// static instruction, the effective address for memory operations, and the
// outcome for branches.
//
// Traces are streamed through the Source interface so multi-million
// instruction runs never need to be materialized; Buffer provides an
// in-memory implementation for reuse across simulator configurations, and
// the binary Writer/Reader pair provides a compact on-disk format.
package trace

import (
	"sync/atomic"

	"repro/internal/isa"
)

// Record is one dynamically executed instruction.
type Record struct {
	PC    uint32    // static instruction index
	Instr isa.Instr // the executed instruction
	Addr  uint32    // effective byte address (Ld/St only)
	Value int32     // result value (register writers), or the stored value (St)
	Taken bool      // branch outcome (conditional branches only)
}

// Class reports the record's operation class.
func (r *Record) Class() isa.Class { return r.Instr.Class() }

// Source is a stream of trace records. Next returns false when the trace is
// exhausted. Implementations are not required to be safe for concurrent use.
//
// Sources whose streams can fail mid-way (the binary Reader, fault-injecting
// wrappers) additionally implement ErrSource; consumers must check Err once
// Next returns false, or use core.RunChecked which does so automatically.
type Source interface {
	// Next stores the next record into rec and reports whether one was
	// available.
	Next(rec *Record) bool
}

// ErrSource is implemented by Sources that can fail mid-stream. Err reports
// the first error encountered; a nil Err after Next returns false means the
// stream ended cleanly.
type ErrSource interface {
	Source
	Err() error
}

// SourceErr reports src's deferred stream error, if src exposes one. It is
// the canonical post-loop check of the error-handling contract: a Source
// without an Err method ends cleanly by definition.
func SourceErr(src Source) error {
	if es, ok := src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// Buffer chunk geometry: fixed-size slabs of records. 1<<15 records is
// about 1 MiB per chunk — big enough that the chunk directory stays tiny
// for multi-million-record traces, small enough that a short trace wastes
// at most one slab.
const (
	chunkShift = 15
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// Buffer is an in-memory trace that can be replayed any number of times.
// The zero value is an empty trace ready for appending.
//
// Records are stored in fixed-size chunks rather than one contiguous
// slice. Trace generation is append-dominated (the VM emits millions of
// records one at a time), and a contiguous slice pays a full copy of
// everything already buffered on every growth step — profiles showed
// growslice memmove alone consuming ~70% of trace-generation time on the
// full workload set. Chunked storage appends in O(1) without ever copying
// a record twice, and never over-allocates more than one chunk.
type Buffer struct {
	chunks [][]Record
	n      int
	hashed atomic.Pointer[bufferHash] // ContentHash memo
}

// Append adds a record to the buffer.
func (b *Buffer) Append(rec Record) {
	i := b.n >> chunkShift
	if i == len(b.chunks) {
		b.chunks = append(b.chunks, make([]Record, 0, chunkLen))
	}
	b.chunks[i] = append(b.chunks[i], rec)
	b.n++
}

// Len reports the number of records.
func (b *Buffer) Len() int { return b.n }

// At returns a pointer to record i (0 <= i < Len). The pointer stays valid
// across later Appends — chunks are never reallocated or moved. Writing
// through it after ContentHash leaves the memoized hash stale.
func (b *Buffer) At(i int) *Record {
	return &b.chunks[i>>chunkShift][i&chunkMask]
}

// Reader returns a Source that replays the buffer from the beginning.
func (b *Buffer) Reader() *BufferReader { return &BufferReader{buf: b} }

// BufferReader streams a Buffer.
type BufferReader struct {
	buf *Buffer
	pos int
}

// Next implements Source.
func (r *BufferReader) Next(rec *Record) bool {
	if r.pos >= r.buf.n {
		return false
	}
	*rec = r.buf.chunks[r.pos>>chunkShift][r.pos&chunkMask]
	r.pos++
	return true
}

// Reset rewinds the reader to the start of the buffer.
func (r *BufferReader) Reset() { r.pos = 0 }

// Err implements ErrSource: an in-memory replay cannot fail.
func (r *BufferReader) Err() error { return nil }

// Limit wraps src, ending the stream after at most n records. It mirrors the
// paper's truncation of long benchmarks ("only the first 250 million
// instructions ... were simulated").
func Limit(src Source, n int64) Source { return &limited{src: src, left: n} }

type limited struct {
	src  Source
	left int64
}

func (l *limited) Next(rec *Record) bool {
	if l.left <= 0 {
		return false
	}
	if !l.src.Next(rec) {
		l.left = 0
		return false
	}
	l.left--
	return true
}

// Err propagates the wrapped source's deferred error so Limit composes with
// the error-handling contract.
func (l *limited) Err() error { return SourceErr(l.src) }

// Drain consumes src into a new Buffer.
func Drain(src Source) *Buffer {
	var b Buffer
	var rec Record
	for src.Next(&rec) {
		b.Append(rec)
	}
	return &b
}
