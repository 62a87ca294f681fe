package trace

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/isa"
)

func hashTestBuffer(n int) *Buffer {
	var b Buffer
	for i := 0; i < n; i++ {
		b.Append(Record{
			PC: uint32(i % 17),
			Instr: isa.Instr{
				Op: isa.Op(i % isa.NumOps), Rd: uint8(i % 8), Rs1: uint8((i + 1) % 8),
				Rs2: uint8((i + 2) % 8), Imm: int32(i * 3), HasImm: i%2 == 0,
			},
			Addr:  uint32(i * 4),
			Value: int32(i - 7),
			Taken: i%3 == 0,
		})
	}
	return &b
}

func TestChecksum64Deterministic(t *testing.T) {
	a := Checksum64([]byte("hello"))
	if a != Checksum64([]byte("hello")) {
		t.Fatal("Checksum64 not deterministic")
	}
	if a == Checksum64([]byte("hellp")) {
		t.Fatal("Checksum64 did not distinguish one-byte difference")
	}
	if Checksum64(nil) == 0 {
		t.Fatal("empty checksum must still carry the seed")
	}
}

func TestContentHashSensitivity(t *testing.T) {
	base := hashTestBuffer(64)
	h0 := base.Hash()
	if h0 != base.Hash() {
		t.Fatal("Buffer.Hash not deterministic")
	}

	// Any single field change must change the hash.
	mutations := []func(*Record){
		func(r *Record) { r.PC ^= 1 },
		func(r *Record) { r.Addr ^= 1 << 13 },
		func(r *Record) { r.Value ^= 1 << 30 },
		func(r *Record) { r.Instr.Imm ^= 1 },
		func(r *Record) { r.Taken = !r.Taken },
		func(r *Record) { r.Instr.HasImm = !r.Instr.HasImm },
		func(r *Record) { r.Instr.Rd ^= 1 },
	}
	for i, mut := range mutations {
		b := hashTestBuffer(64)
		mut(b.At(33))
		if b.Hash() == h0 {
			t.Errorf("mutation %d: hash unchanged", i)
		}
	}

	// Dropping a record must change the hash.
	short := hashTestBuffer(63)
	if short.Hash() == h0 {
		t.Fatal("hash unchanged after dropping a record")
	}
}

// TestContentHashMatchesBinaryRoundTrip pins the core property the store
// relies on: hashing a binary Reader stream equals hashing the Buffer the
// trace was written from.
func TestContentHashMatchesBinaryRoundTrip(t *testing.T) {
	buf := hashTestBuffer(200)
	var img bytes.Buffer
	w, err := NewWriter(&img)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < buf.Len(); i++ {
		if err := w.Write(buf.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h, n, err := ContentHash(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("hashed %d records, want 200", n)
	}
	if h != buf.Hash() {
		t.Fatalf("reader hash %#x != buffer hash %#x", h, buf.Hash())
	}
}

type failingSource struct {
	n   int
	err error
}

func (f *failingSource) Next(rec *Record) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	return true
}
func (f *failingSource) Err() error { return f.err }

// TestContentHashPropagatesStreamErrors: a failing source must fail the
// hash (never hash a silent prefix as if it were the whole trace).
func TestContentHashPropagatesStreamErrors(t *testing.T) {
	boom := errors.New("stream died")
	if _, _, err := ContentHash(&failingSource{n: 3, err: boom}); !errors.Is(err, boom) {
		t.Fatalf("ContentHash err = %v, want %v", err, boom)
	}
}

// TestBufferContentHashMemoized: concurrent first callers agree, a repeat
// call does no pass (so allocates nothing), and an Append invalidates the
// memo.
func TestBufferContentHashMemoized(t *testing.T) {
	b := hashTestBuffer(1000)
	want, _, _ := ContentHash(b.Reader())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h, n, err := b.ContentHash(); h != want || n != 1000 || err != nil {
				t.Errorf("ContentHash = %#x/%d/%v, want %#x/1000", h, n, err, want)
			}
		}()
	}
	wg.Wait()
	if allocs := testing.AllocsPerRun(10, func() { b.ContentHash() }); allocs != 0 {
		t.Fatalf("repeat ContentHash allocates %v per call, want 0 (no pass)", allocs)
	}

	b.Append(*b.At(0))
	after, _, _ := ContentHash(b.Reader())
	if h, n, _ := b.ContentHash(); h != after || n != 1001 || h == want {
		t.Fatalf("after Append: ContentHash = %#x/%d, want %#x/1001", h, n, after)
	}
}
