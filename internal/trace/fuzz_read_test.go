package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
)

// FuzzReadTrace asserts the binary reader's safety contract on arbitrary
// bytes: it never panics, never loops forever, and for every record it does
// deliver, the record passed structural validation (opcode and registers in
// range, defined flag bits) — so corrupt input can never reach the
// scheduler as out-of-range state. Every delivered record re-encodes to
// the exact bytes it was read from, and a clean stream's content hash
// equals the hash of the records it delivered.
func FuzzReadTrace(f *testing.F) {
	valid := imageForFuzz(f, 10)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SV8T"))
	f.Add(valid[:trace.HeaderSize])
	f.Add(valid[:trace.HeaderSize+trace.RecordSize/2])
	for _, bf := range faultinject.ByteFaults {
		f.Add(faultinject.Corrupt(valid, bf, 1))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			if !trace.IsCorrupt(err) {
				t.Fatalf("NewReader error not classified as corrupt: %v", err)
			}
			return
		}
		var rec trace.Record
		var got trace.Buffer
		limit := len(data) // can never deliver more records than bytes
		for r.Next(&rec) {
			got.Append(rec)
			if got.Len() > limit {
				t.Fatalf("reader delivered %d records from %d bytes", got.Len(), len(data))
			}
		}
		err = r.Err()
		if err != nil && !trace.IsCorrupt(err) {
			t.Fatalf("Err not classified as corrupt: %v", err)
		}
		n := got.Len()
		if uint64(n) != r.Records() {
			t.Fatalf("delivered %d records but Records() = %d", n, r.Records())
		}

		var enc bytes.Buffer
		w, werr := trace.NewWriter(&enc)
		if werr != nil {
			t.Fatal(werr)
		}
		for i := 0; i < n; i++ {
			if werr := w.Write(got.At(i)); werr != nil {
				t.Fatal(werr)
			}
		}
		if werr := w.Close(); werr != nil {
			t.Fatal(werr)
		}
		read := data[trace.HeaderSize : trace.HeaderSize+n*trace.RecordSize]
		if re := enc.Bytes()[trace.HeaderSize:]; !bytes.Equal(re, read) {
			t.Fatalf("%d delivered records re-encode to % x, were read from % x", n, re, read)
		}

		if err != nil {
			return
		}
		r, err = trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		h, hn, err := trace.ContentHash(r)
		if err != nil || hn != int64(n) || h != got.Hash() {
			t.Fatalf("ContentHash over the Reader = %#x/%d/%v, over its %d records %#x",
				h, hn, err, n, got.Hash())
		}
	})
}

func imageForFuzz(f *testing.F, n int) []byte {
	f.Helper()
	var ms memSeeker
	w, err := trace.NewWriter(&ms)
	if err != nil {
		f.Fatal(err)
	}
	rec := trace.Record{Instr: isa.Instr{Op: isa.Add, Rd: 1, Rs1: 2, Rs2: 3}}
	for i := 0; i < n; i++ {
		rec.PC = uint32(i)
		if err := w.Write(&rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return ms.b
}
