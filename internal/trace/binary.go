package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/failure"
	"repro/internal/isa"
)

// Binary trace format: a fixed header followed by one fixed-size little-
// endian record per instruction. Fixed-size records keep the reader
// allocation-free; traces compress well externally if needed.
//
//	header:  magic "SV8T" | version u32 | count u64
//	record:  pc u32 | op u8 | rd u8 | rs1 u8 | rs2 u8 |
//	         imm i32 | target i32 | addr u32 | value i32 |
//	         flags u8 (bit0 hasImm, bit1 taken) | check u8
//
// Version 3 appends a one-byte XOR checksum to every record (all preceding
// record bytes folded together, then mixed with checkSeed), so any
// single-bit corruption of a stored record is detected at read time rather
// than silently producing a different simulation result.
const (
	binMagic   = "SV8T"
	binVersion = 3
	recSize    = 4 + 4 + 4 + 4 + 4 + 4 + 1 + 1
	hdrSize    = 16
	checkSeed  = 0xA5
)

// HeaderSize and RecordSize expose the on-disk layout so fault-injection
// tools can corrupt trace images at controlled offsets.
const (
	HeaderSize = hdrSize
	RecordSize = recSize
)

// Corruption classes reported by Reader.Err and NewReader. Every decoding
// failure wraps exactly one of these sentinels, so callers can classify
// corrupt-input errors (errors.Is / IsCorrupt) without string matching.
var (
	// ErrBadMagic: the stream does not start with the SV8T magic.
	ErrBadMagic error = corruptError("trace: bad magic")
	// ErrBadVersion: the header names a format version this reader does not
	// speak.
	ErrBadVersion error = corruptError("trace: unsupported version")
	// ErrBadHeader: the header itself is short or unreadable.
	ErrBadHeader error = corruptError("trace: corrupt header")
	// ErrTruncated: the stream ended before the header's record count was
	// satisfied, either mid-record or at a record boundary.
	ErrTruncated error = corruptError("trace: truncated")
	// ErrCorruptRecord: a record failed validation (checksum mismatch,
	// out-of-range opcode or register, undefined flag bits).
	ErrCorruptRecord error = corruptError("trace: corrupt record")
	// ErrTrailingData: bytes follow the final record promised by the header
	// (e.g. a duplicated record appended to the image).
	ErrTrailingData error = corruptError("trace: trailing data after final record")
)

// corruptError is the type of the corrupt-input sentinels above: each
// declares the corrupt failure kind, which is permanent (the bytes will
// not heal).
type corruptError string

func (e corruptError) Error() string           { return string(e) }
func (corruptError) FailureKind() failure.Kind { return failure.Corrupt }

// IsCorrupt reports whether err denotes corrupt or malformed trace input
// (as opposed to an I/O failure or an unrelated error). The ddsim family
// maps such errors to a distinct exit code.
func IsCorrupt(err error) bool { return failure.Of(err) == failure.Corrupt }

// blockSize is the codec's unit of I/O. A Writer encodes records straight
// into one block and writes it whole; a Reader fills one block with large
// reads and validates and decodes each record where it lies. The header
// and 2520 records fill the first block of an image exactly.
const blockSize = 1 << 16

// maxEmptyReads is how many reads in a row may return neither data nor an
// error before a Reader gives up with io.ErrNoProgress (bufio's bound).
const maxEmptyReads = 100

// checksum folds the first recSize-1 bytes of an encoded record into its
// final checksum byte. XOR is associative, so folding three little-endian
// words and byte 24 gives the XOR of the 25 bytes one by one. XOR detects
// every single-bit flip in the record image.
func checksum(b []byte) uint8 {
	_ = b[recSize-2]
	w := binary.LittleEndian.Uint64(b[0:8]) ^ binary.LittleEndian.Uint64(b[8:16]) ^
		binary.LittleEndian.Uint64(b[16:24])
	w ^= w >> 32
	w ^= w >> 16
	w ^= w >> 8
	return uint8(w) ^ b[24] ^ checkSeed
}

// Writer streams records to w in the binary trace format. Call Close to
// flush and finalize. Records are encoded straight into one block, which
// is written whole when it fills. The header count is patched only when w
// is an io.WriteSeeker; otherwise the count field is zero and the reader
// streams until EOF.
type Writer struct {
	dst   io.Writer
	seek  io.WriteSeeker
	block []byte // block[:n] is encoded but not yet written
	n     int
	err   error // the first write failure; every later Write and Close report it
	count uint64
	hash  uint64
}

// NewWriter creates a trace writer on w. The header is written with the
// first block.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{dst: w, block: make([]byte, blockSize), n: hdrSize, hash: fnvOffset64 ^ checkSeed}
	if ws, ok := w.(io.WriteSeeker); ok {
		tw.seek = ws
	}
	copy(tw.block[:4], binMagic)
	binary.LittleEndian.PutUint32(tw.block[4:8], binVersion)
	// count (block[8:16]) patched on Close when seekable.
	return tw, nil
}

// encodeRecord renders rec into the canonical v3 record framing, checksum
// byte included. It is shared by Writer.Write and Hasher.WriteRecord so
// the on-disk encoding and the content hash can never drift apart.
func encodeRecord(b *[recSize]byte, rec *Record) {
	binary.LittleEndian.PutUint32(b[0:4], rec.PC)
	b[4] = uint8(rec.Instr.Op)
	b[5] = rec.Instr.Rd
	b[6] = rec.Instr.Rs1
	b[7] = rec.Instr.Rs2
	binary.LittleEndian.PutUint32(b[8:12], uint32(rec.Instr.Imm))
	binary.LittleEndian.PutUint32(b[12:16], uint32(rec.Instr.Target))
	binary.LittleEndian.PutUint32(b[16:20], rec.Addr)
	binary.LittleEndian.PutUint32(b[20:24], uint32(rec.Value))
	var flags uint8
	if rec.Instr.HasImm {
		flags |= 1
	}
	if rec.Taken {
		flags |= 2
	}
	b[24] = flags
	b[25] = checksum(b[:])
}

// Write appends one record, encoded in place in the block and folded into
// the running content hash.
func (tw *Writer) Write(rec *Record) error {
	if len(tw.block)-tw.n < recSize {
		if err := tw.flush(); err != nil {
			return err
		}
	}
	b := (*[recSize]byte)(tw.block[tw.n:])
	encodeRecord(b, rec)
	tw.hash = fnv1a(tw.hash, b[:])
	tw.n += recSize
	tw.count++
	return nil
}

// flush writes the block's encoded bytes. A write that takes fewer bytes
// without an error fails with io.ErrShortWrite, as bufio's does.
func (tw *Writer) flush() error {
	if tw.err != nil {
		return tw.err
	}
	n, err := tw.dst.Write(tw.block[:tw.n])
	if err == nil && n < tw.n {
		err = io.ErrShortWrite
	}
	if err != nil {
		tw.err = err
		return err
	}
	tw.n = 0
	return nil
}

// Sum64 reports the content hash (trace.ContentHash) of everything written
// so far, folded inline record by record — writing a trace never needs a
// second hashing pass over it.
func (tw *Writer) Sum64() uint64 { return tw.hash }

// Close flushes buffered data and, when the underlying writer is seekable,
// patches the record count into the header.
func (tw *Writer) Close() error {
	if err := tw.flush(); err != nil {
		return err
	}
	if tw.seek == nil {
		return nil
	}
	if _, err := tw.seek.Seek(8, io.SeekStart); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], tw.count)
	if _, err := tw.seek.Write(cnt[:]); err != nil {
		return err
	}
	_, err := tw.seek.Seek(0, io.SeekEnd)
	return err
}

// Count reports the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Reader streams records from the binary trace format. It implements
// Source; decoding errors surface through Err after Next returns false.
// It reads one block at a time and validates and decodes each record in
// place.
//
// Error-handling contract (see docs/robustness.md): after Next returns
// false the caller MUST consult Err — a truncated or corrupted stream is
// otherwise indistinguishable from a short trace. core.RunChecked does this
// automatically for any Source exposing Err() error.
type Reader struct {
	src     io.Reader
	block   []byte // block[pos:end] is read but not yet delivered
	pos     int
	end     int
	srcErr  error  // the source's first error, met once the buffered bytes run out
	left    uint64 // records remaining per header; ^0 means stream to EOF
	counted bool   // header carried an authoritative record count
	read    uint64 // records decoded so far
	err     error
	last    [recSize]byte // the final counted record, kept while looking past it
}

// NewReader opens a binary trace stream. Header-level corruption (short
// header, bad magic, unsupported version) is reported immediately; record-
// level corruption surfaces later through Err.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, block: make([]byte, blockSize)}
	if err := tr.fill(hdrSize); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadHeader, err)
	}
	hdr := tr.block[:hdrSize]
	if string(hdr[:4]) != binMagic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != binVersion {
		return nil, fmt.Errorf("%w %d (want %d; regenerate with ddtrace)", ErrBadVersion, v, binVersion)
	}
	tr.left = binary.LittleEndian.Uint64(hdr[8:16])
	tr.counted = tr.left != 0
	if !tr.counted {
		tr.left = ^uint64(0)
	}
	tr.pos = hdrSize
	return tr, nil
}

// fill reads until at least need bytes are buffered, first moving what is
// left of the block to its start. Each read offers the source the rest of
// the block. The error reads like io.ReadFull's: io.EOF when the stream
// ended with nothing buffered, io.ErrUnexpectedEOF when it ended short of
// need, else the source's own error — io.ErrNoProgress once maxEmptyReads
// reads in a row returned neither data nor an error.
func (tr *Reader) fill(need int) error {
	if tr.pos > 0 {
		tr.end = copy(tr.block, tr.block[tr.pos:tr.end])
		tr.pos = 0
	}
	for empty := 0; tr.end < need; {
		if err := tr.srcErr; err != nil {
			if err == io.EOF && tr.end > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		n, err := tr.src.Read(tr.block[tr.end:])
		tr.end += n
		tr.srcErr = err
		switch {
		case n > 0:
			empty = 0
		case err == nil:
			if empty++; empty == maxEmptyReads {
				tr.srcErr = io.ErrNoProgress
			}
		}
	}
	return nil
}

// next returns the next record's validated image, or nil once the stream
// has ended or failed (Err tells which). The image lies in the block and
// stays valid until the following call.
func (tr *Reader) next() []byte {
	if tr.left == 0 || tr.err != nil {
		return nil
	}
	if tr.end-tr.pos < recSize {
		if err := tr.fill(recSize); err != nil {
			switch {
			case err == io.EOF && !tr.counted:
				// Clean end of a count-less stream.
			case err == io.EOF:
				tr.err = fmt.Errorf("%w: stream ended after %d records, header promised %d more",
					ErrTruncated, tr.read, tr.left)
			case err == io.ErrUnexpectedEOF:
				tr.err = fmt.Errorf("%w: stream ended mid-record after %d records", ErrTruncated, tr.read)
			default:
				tr.err = fmt.Errorf("trace: reading record %d: %w", tr.read, err)
			}
			tr.left = 0
			return nil
		}
	}
	b := tr.block[tr.pos : tr.pos+recSize : tr.pos+recSize]
	if err := tr.validate(b); err != nil {
		tr.err = err
		tr.left = 0
		return nil
	}
	tr.pos += recSize
	tr.read++
	if tr.counted {
		tr.left--
		if tr.left == 0 {
			// The header's count is authoritative: anything after the final
			// record (a duplicated record, appended garbage) is corruption.
			// Looking may refill the block, so the record moves out first.
			b = tr.last[:]
			copy(b, tr.block[tr.pos-recSize:tr.pos])
			if tr.pos < tr.end || tr.fill(1) == nil {
				tr.err = fmt.Errorf("%w (after %d records)", ErrTrailingData, tr.read)
			}
		}
	}
	return b
}

// Next implements Source.
func (tr *Reader) Next(rec *Record) bool {
	b := tr.next()
	if b == nil {
		return false
	}
	rec.PC = binary.LittleEndian.Uint32(b[0:4])
	rec.Instr = isa.Instr{
		Op:     isa.Op(b[4]),
		Rd:     b[5],
		Rs1:    b[6],
		Rs2:    b[7],
		Imm:    int32(binary.LittleEndian.Uint32(b[8:12])),
		Target: int32(binary.LittleEndian.Uint32(b[12:16])),
		HasImm: b[24]&1 != 0,
	}
	rec.Addr = binary.LittleEndian.Uint32(b[16:20])
	rec.Value = int32(binary.LittleEndian.Uint32(b[20:24]))
	rec.Taken = b[24]&2 != 0
	return true
}

// contentHash drains the reader into ContentHash's value, folding each
// validated record image as it was read. A record that passes validation
// is its own canonical encoding — every byte is a field, the flag byte
// carries only bits 0-1, and the checksum byte was just verified — so
// decoding it and encoding it again would fold the same bytes.
func (tr *Reader) contentHash() (uint64, int64, error) {
	h := uint64(fnvOffset64 ^ checkSeed)
	var n int64
	for b := tr.next(); b != nil; b = tr.next() {
		h = fnv1a(h, b)
		n++
	}
	if tr.err != nil {
		return 0, n, tr.err
	}
	return h, n, nil
}

// validate rejects structurally impossible records before they reach the
// simulator: checksum mismatches, out-of-range opcodes and registers, and
// undefined flag bits. Each failure names the offending field.
func (tr *Reader) validate(b []byte) error {
	if got, want := b[recSize-1], checksum(b); got != want {
		return fmt.Errorf("%w %d: checksum %#02x, want %#02x", ErrCorruptRecord, tr.read, got, want)
	}
	if int(b[4]) >= isa.NumOps {
		return fmt.Errorf("%w %d: opcode %d out of range", ErrCorruptRecord, tr.read, b[4])
	}
	for i := 5; i < 8; i++ {
		if int(b[i]) >= isa.NumRegs {
			return fmt.Errorf("%w %d: register %s=%d out of range", ErrCorruptRecord, tr.read,
				[...]string{"rd", "rs1", "rs2"}[i-5], b[i])
		}
	}
	if b[24]&^3 != 0 {
		return fmt.Errorf("%w %d: undefined flag bits %#02x", ErrCorruptRecord, tr.read, b[24])
	}
	return nil
}

// Err reports the first decoding error encountered, if any. Callers must
// check it whenever Next returns false.
func (tr *Reader) Err() error { return tr.err }

// Records reports how many records have been decoded so far.
func (tr *Reader) Records() uint64 { return tr.read }
