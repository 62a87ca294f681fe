package trace

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// checksumBytes is the byte-at-a-time checksum the word fold must equal.
func checksumBytes(b []byte) uint8 {
	c := uint8(checkSeed)
	for _, x := range b[:recSize-1] {
		c ^= x
	}
	return c
}

// TestChecksumMatchesByteLoop: folding words gives the byte loop's value
// on random record images, whatever their checksum byte holds.
func TestChecksumMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, recSize)
	for i := 0; i < 1<<16; i++ {
		rng.Read(b)
		if got, want := checksum(b), checksumBytes(b); got != want {
			t.Fatalf("image % x: checksum %#02x, byte loop %#02x", b, got, want)
		}
	}
}

// TestOpenFileClosesItsFile: a trace file's stream releases its file both
// when it is drained and when it is abandoned early.
func TestOpenFileClosesItsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	if _, err := SpoolFrom(path, hashTestBuffer(100).Reader()); err != nil {
		t.Fatal(err)
	}
	closed := func(src ErrSource) bool {
		_, err := src.(*fileSource).f.Stat()
		return errors.Is(err, os.ErrClosed)
	}
	var rec Record

	drained, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for drained.Next(&rec) {
		n++
	}
	if err := drained.Err(); err != nil || n != 100 {
		t.Fatalf("drained %d records, err %v; want 100", n, err)
	}
	if !closed(drained) {
		t.Fatal("a drained stream left its file open")
	}

	abandoned, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !abandoned.Next(&rec) || closed(abandoned) {
		t.Fatal("the stream closed its file before its end")
	}
	CloseSource(abandoned)
	if !closed(abandoned) {
		t.Fatal("an abandoned stream left its file open")
	}
	if abandoned.Next(&rec) {
		t.Fatal("a closed stream delivered a record")
	}
}

// benchRecords is the synthetic trace length of the spool benchmarks.
const benchRecords = 1 << 20

// benchSpool returns the benchmarks' synthetic trace and a path for it.
func benchSpool(b *testing.B) (*Buffer, string) {
	b.Helper()
	return hashTestBuffer(benchRecords), filepath.Join(b.TempDir(), "bench.trace")
}

// reportMRec reports the benchmark's throughput in million records per
// second.
func reportMRec(b *testing.B) {
	b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MRec/s")
}

// BenchmarkSpoolWrite writes a 1M-record trace into a spool: encoding,
// the inline content hash, block writes and the commit.
func BenchmarkSpoolWrite(b *testing.B) {
	buf, path := benchSpool(b)
	b.SetBytes(benchRecords * recSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpoolFrom(path, buf.Reader()); err != nil {
			b.Fatal(err)
		}
	}
	reportMRec(b)
}

// BenchmarkOpenSpool re-opens a 1M-record spool: one validating pass that
// recovers its content hash and count.
func BenchmarkOpenSpool(b *testing.B) {
	buf, path := benchSpool(b)
	if _, err := SpoolFrom(path, buf.Reader()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchRecords * recSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := OpenSpool(path)
		if err != nil || sp.Records() != benchRecords {
			b.Fatalf("OpenSpool: %d records, err %v", sp.Records(), err)
		}
	}
	reportMRec(b)
}

// BenchmarkSpoolReplay streams a 1M-record spool into records: reading,
// validation and decoding.
func BenchmarkSpoolReplay(b *testing.B) {
	buf, path := benchSpool(b)
	sp, err := SpoolFrom(path, buf.Reader())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchRecords * recSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := sp.Open()
		if err != nil {
			b.Fatal(err)
		}
		var rec Record
		n := 0
		for src.Next(&rec) {
			n++
		}
		if err := src.Err(); err != nil || n != benchRecords {
			b.Fatalf("replayed %d records, err %v", n, err)
		}
	}
	reportMRec(b)
}
