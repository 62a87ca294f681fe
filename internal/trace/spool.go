package trace

// Spool: a trace parked on disk in the v3 binary format, re-openable any
// number of times with one 64 KiB block of memory per open. A spool is
// written once — during the trace's first generation pass — with the FNV
// content hash folded inline by the Writer, so the hash is known the
// moment the spool finalizes and no second pass over the bytes is ever
// needed.
//
// Spool files commit via temp-file + rename: a crash mid-write leaves a
// .tmp file (cleaned by the next writer), never a truncated trace under
// the final name. Re-opening an already-complete spool from a previous
// process (OpenSpool) pays one streaming validation pass to recover the
// hash and count — the checksummed v3 format makes that pass also an
// integrity check.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Spool is an on-disk trace Provider.
type Spool struct {
	path string
	hash uint64
	n    int64
}

// Path reports the spool's file path.
func (s *Spool) Path() string { return s.path }

// Records reports the spool's record count.
func (s *Spool) Records() int64 { return s.n }

// ContentHash implements Provider; the hash was folded inline at write
// time (or during OpenSpool's validation pass), so this never costs I/O.
func (s *Spool) ContentHash() (uint64, int64, error) { return s.hash, s.n, nil }

// Open implements Provider: a fresh stream over the spool file. The stream
// closes the file when it ends (cleanly or on error); abandon it early
// with CloseSource.
func (s *Spool) Open() (ErrSource, error) {
	src, err := OpenFile(s.path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening spool: %w", err)
	}
	return src, nil
}

// OpenFile opens a binary trace file as a stream. The stream closes the
// file when it ends (cleanly or on error); abandon it early with
// CloseSource.
func OpenFile(path string) (ErrSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return &fileSource{f: f, r: r}, nil
}

// fileSource streams one open of a trace file, closing the file when the
// stream ends so fully consumed opens never leak a descriptor.
type fileSource struct {
	f      *os.File
	r      *Reader
	closed bool
}

func (s *fileSource) Next(rec *Record) bool {
	if s.closed {
		return false
	}
	if s.r.Next(rec) {
		return true
	}
	s.Close()
	return false
}

func (s *fileSource) Err() error { return s.r.Err() }

// Close releases the file; safe to call multiple times.
func (s *fileSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// SpoolWriter streams records into a spool file. Create with CreateSpool,
// feed with Append, then either Finish (commit: rename into place, hash and
// count finalized) or Abort (remove the temp file). Exactly one of the two
// must be called.
type SpoolWriter struct {
	f    *os.File
	tw   *Writer
	dst  string
	tmp  string
	done bool
}

// spoolSeq distinguishes concurrent temp files: two goroutines (or two
// processes — the pid is mixed in) spooling the same trace never clobber
// each other's partial write; the rename race is benign because both
// commit identical bytes.
var spoolSeq atomic.Int64

// CreateSpool starts writing a spool that will commit to path.
func CreateSpool(path string) (*SpoolWriter, error) {
	tmp := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), spoolSeq.Add(1))
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("trace: creating spool: %w", err)
	}
	tw, err := NewWriter(f)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return &SpoolWriter{f: f, tw: tw, dst: path, tmp: tmp}, nil
}

// Append writes one record.
func (sw *SpoolWriter) Append(rec *Record) error { return sw.tw.Write(rec) }

// Records reports how many records have been appended so far.
func (sw *SpoolWriter) Records() int64 { return int64(sw.tw.Count()) }

// Sum64 reports the content hash of everything appended so far.
func (sw *SpoolWriter) Sum64() uint64 { return sw.tw.Sum64() }

// Finish flushes, patches the header's record count, commits the file
// under its final name, and returns the completed Spool.
func (sw *SpoolWriter) Finish() (*Spool, error) {
	if sw.done {
		return nil, fmt.Errorf("trace: spool writer already finished")
	}
	sw.done = true
	if err := sw.tw.Close(); err != nil {
		sw.f.Close()
		os.Remove(sw.tmp)
		return nil, err
	}
	if err := sw.f.Close(); err != nil {
		os.Remove(sw.tmp)
		return nil, err
	}
	if err := os.Rename(sw.tmp, sw.dst); err != nil {
		os.Remove(sw.tmp)
		return nil, fmt.Errorf("trace: committing spool: %w", err)
	}
	return &Spool{path: sw.dst, hash: sw.tw.Sum64(), n: int64(sw.tw.Count())}, nil
}

// Abort discards the partial spool. Safe after a failed Finish.
func (sw *SpoolWriter) Abort() {
	if sw.done {
		return
	}
	sw.done = true
	sw.f.Close()
	os.Remove(sw.tmp)
}

// SpoolFrom streams src into a spool at path — the one-pass
// generate-and-spool primitive. The source's deferred error aborts the
// spool (a truncated generation must not commit as a plausible short
// trace).
func SpoolFrom(path string, src Source) (*Spool, error) {
	sw, err := CreateSpool(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	for src.Next(&rec) {
		if err := sw.Append(&rec); err != nil {
			sw.Abort()
			return nil, err
		}
	}
	if err := SourceErr(src); err != nil {
		sw.Abort()
		return nil, fmt.Errorf("trace: spooling to %s: %w", path, err)
	}
	return sw.Finish()
}

// OpenSpool opens an already-written spool file, paying one streaming
// validation pass to recover its content hash and record count. Any
// corruption (truncation, bit flips, trailing bytes) fails the open — a
// reused spool is as trustworthy as a fresh one.
func OpenSpool(path string) (*Spool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	h, n, err := ContentHash(r)
	if err != nil {
		return nil, fmt.Errorf("trace: validating %s: %w", path, err)
	}
	return &Spool{path: path, hash: h, n: n}, nil
}
