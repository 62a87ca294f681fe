package trace

// Content hashing for traces. The durable result store (internal/store)
// keys persisted simulation results by the *content* of the trace that
// produced them — not by file name or workload label — so a regenerated or
// renamed trace with identical records resumes cleanly, while any change to
// even one record field produces a different key and forces recomputation.
//
// Checksum64 is the shared 64-bit FNV-1a fold used by both the content
// hash and the store's per-entry checksums; it mixes the same checkSeed as
// the v3 binary format's per-record XOR byte so the two integrity layers
// are visibly part of one family.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Checksum64 folds data into a 64-bit FNV-1a checksum seeded with the
// trace format's checkSeed. It is the integrity primitive shared by trace
// content hashing and the on-disk result store (internal/store).
func Checksum64(data []byte) uint64 {
	return fnv1a(fnvOffset64^checkSeed, data)
}

// fnv1a folds data into the running FNV-1a state h: the one byte fold
// behind Checksum64, Hasher, and the content hashes a Writer and a Reader
// fold inline.
func fnv1a(h uint64, data []byte) uint64 {
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// Hasher incrementally folds records into a trace content hash — the
// building block behind ContentHash for callers that see records one at a
// time (a generation pass deciding mid-stream to stop buffering, a tee).
// The zero value is not ready; create with NewHasher.
type Hasher struct {
	h   uint64
	n   int64
	buf [recSize]byte
}

// NewHasher returns a Hasher in the initial state.
func NewHasher() *Hasher {
	return &Hasher{h: fnvOffset64 ^ checkSeed}
}

// WriteRecord folds one record's canonical binary encoding into the hash.
func (hs *Hasher) WriteRecord(rec *Record) {
	encodeRecord(&hs.buf, rec)
	hs.h = fnv1a(hs.h, hs.buf[:])
	hs.n++
}

// Sum64 reports the hash of everything folded so far.
func (hs *Hasher) Sum64() uint64 { return hs.h }

// Records reports how many records have been folded.
func (hs *Hasher) Records() int64 { return hs.n }

// ContentHash drains src, folding each record's canonical binary encoding
// (the v3 record framing, checksum byte included) into one 64-bit content
// hash, and returns the hash and the number of records consumed. Two
// sources hash equal iff they deliver identical record sequences, so the
// hash of a binary Reader equals the hash of the Buffer the trace was
// written from.
//
// ContentHash honors the error-handling contract: a source that fails
// mid-stream (truncation, corruption) fails the hash rather than silently
// hashing a prefix. A binary Reader is hashed from its validated record
// images as read, with no decoding.
func ContentHash(src Source) (uint64, int64, error) {
	if r, ok := src.(*Reader); ok {
		return r.contentHash()
	}
	hs := NewHasher()
	var rec Record
	for src.Next(&rec) {
		hs.WriteRecord(&rec)
	}
	if err := SourceErr(src); err != nil {
		return 0, hs.n, err
	}
	return hs.h, hs.n, nil
}

// Hash returns the buffer's content hash (its memoized ContentHash;
// in-memory buffers cannot fail).
func (b *Buffer) Hash() uint64 {
	h, _, _ := b.ContentHash()
	return h
}
