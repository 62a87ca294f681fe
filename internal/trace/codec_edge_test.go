package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/isa"
	"repro/internal/trace"
)

// recsPerBlock is how many records follow the header in the first 64 KiB
// of an image: the header and 2520 records fill it exactly.
const recsPerBlock = (1<<16 - trace.HeaderSize) / trace.RecordSize

// edgeRecord is record i of the edge-case traces; its fields span their
// ranges (negative immediates and values, high registers, both flags).
func edgeRecord(i int) trace.Record {
	return trace.Record{
		PC: uint32(i * 7),
		Instr: isa.Instr{
			Op: isa.Op(i % isa.NumOps), Rd: uint8(i % isa.NumRegs),
			Rs1: uint8((i + 5) % isa.NumRegs), Rs2: uint8((i + 11) % isa.NumRegs),
			Imm: int32(-i * 3), Target: int32(i ^ 0x5a5a), HasImm: i%2 == 0,
		},
		Addr:  uint32(i) * 0x9e3779b1,
		Value: int32(i) * -40503,
		Taken: i%3 == 0,
	}
}

// writeEdge writes n edge records through a Writer on dst and returns the
// first error Write or Close reported.
func writeEdge(dst io.Writer, n int) error {
	w, err := trace.NewWriter(dst)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		rec := edgeRecord(i)
		if err := w.Write(&rec); err != nil {
			return err
		}
	}
	return w.Close()
}

// stalled returns no data and no error from every Read.
type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, nil }

// shortWriter accepts one byte less than it is given and reports no error.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return len(p) - 1, nil
}

var errMidBlock = errors.New("disk read failed")

// TestCodecEdgeCases pins how the binary codec meets its io.Reader and
// io.Writer: odd read sizes, sources that stall or fail, images whose
// ends fall on or across 64 KiB block boundaries, short writes and
// count-less images. Each row writes records through a Writer, hands the
// Reader some view of the image, and states what the Reader must deliver.
func TestCodecEdgeCases(t *testing.T) {
	cut := func(n int) func([]byte) io.Reader {
		return func(img []byte) io.Reader { return bytes.NewReader(img[:n]) }
	}
	blockEnd := 2 << 16 // the second 64 KiB block ends inside record 5040
	rows := []struct {
		name      string
		records   int                    // records given to the Writer
		countless bool                   // write through a non-seekable writer
		stream    func([]byte) io.Reader // the Reader's view; nil: the whole image
		writeErr  error                  // the error Write or Close must report
		want      int                    // records the Reader delivers
		err       error                  // the error it must end with; nil: clean
		corrupt   bool                   // whether that error classifies as corrupt
		msg       string                 // text the error must carry
	}{
		{name: "one byte per read", records: 3000,
			stream: func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }, want: 3000},
		{name: "half reads", records: 3000,
			stream: func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }, want: 3000},
		{name: "EOF with the last data", records: 3000,
			stream: func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }, want: 3000},
		{name: "no progress in the header", records: 10,
			stream: func([]byte) io.Reader { return stalled{} },
			err:    trace.ErrBadHeader, corrupt: true, msg: io.ErrNoProgress.Error()},
		{name: "no progress in the body", records: 10,
			stream: func(b []byte) io.Reader {
				return io.MultiReader(bytes.NewReader(b[:trace.HeaderSize+4*trace.RecordSize+9]), stalled{})
			},
			want: 4, err: io.ErrNoProgress, msg: "record 4"},
		{name: "read error mid-block", records: 3000,
			stream: func(b []byte) io.Reader {
				return io.MultiReader(bytes.NewReader(b[:trace.HeaderSize+1234*trace.RecordSize+5]), iotest.ErrReader(errMidBlock))
			},
			want: 1234, err: errMidBlock, msg: "record 1234"},
		{name: "one block exactly", records: recsPerBlock, want: recsPerBlock},
		{name: "two blocks exactly", records: 2 * recsPerBlock, want: 2 * recsPerBlock},
		{name: "one block and a trailing byte", records: recsPerBlock,
			stream: func(b []byte) io.Reader { return bytes.NewReader(append(b, 0)) },
			want:   recsPerBlock, err: trace.ErrTrailingData, corrupt: true},
		{name: "two blocks and a trailing byte", records: 2 * recsPerBlock,
			stream: func(b []byte) io.Reader { return bytes.NewReader(append(b, 0)) },
			want:   2 * recsPerBlock, err: trace.ErrTrailingData, corrupt: true},
		{name: "truncated at a block boundary inside a record", records: 6000,
			stream: cut(blockEnd), want: 5040, err: trace.ErrTruncated, corrupt: true, msg: "mid-record"},
		{name: "truncated just past a block boundary inside a record", records: 6000,
			stream: cut(blockEnd + 3), want: 5040, err: trace.ErrTruncated, corrupt: true, msg: "mid-record"},
		{name: "truncated at a record boundary", records: 6000,
			stream: cut(trace.HeaderSize + 5000*trace.RecordSize), want: 5000, err: trace.ErrTruncated, corrupt: true},
		{name: "count-less image", records: 6000, countless: true, want: 6000},
		{name: "count-less image cut at a record boundary", records: 6000, countless: true,
			stream: cut(trace.HeaderSize + 5000*trace.RecordSize), want: 5000},
		{name: "count-less image cut inside a record", records: 6000, countless: true,
			stream: cut(blockEnd), want: 5040, err: trace.ErrTruncated, corrupt: true},
		{name: "short write", records: 10, writeErr: io.ErrShortWrite},
		{name: "short write past a block", records: 6000, writeErr: io.ErrShortWrite},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.writeErr != nil {
				if err := writeEdge(shortWriter{}, row.records); !errors.Is(err, row.writeErr) {
					t.Fatalf("writer error %v, want %v", err, row.writeErr)
				}
				return
			}
			var img []byte
			if row.countless {
				var plain bytes.Buffer
				if err := writeEdge(&plain, row.records); err != nil {
					t.Fatal(err)
				}
				img = plain.Bytes()
				if !bytes.Equal(img[8:16], make([]byte, 8)) {
					t.Fatalf("non-seekable writer patched the count: % x", img[8:16])
				}
			} else {
				var ms memSeeker
				if err := writeEdge(&ms, row.records); err != nil {
					t.Fatal(err)
				}
				img = ms.b
			}
			if len(img) != trace.HeaderSize+row.records*trace.RecordSize {
				t.Fatalf("image is %d bytes, want %d", len(img), trace.HeaderSize+row.records*trace.RecordSize)
			}
			src := io.Reader(bytes.NewReader(img))
			if row.stream != nil {
				src = row.stream(img)
			}
			n, err := drainWithin(t, src, 20*time.Second)
			if n != row.want {
				t.Errorf("delivered %d records, want %d", n, row.want)
			}
			switch {
			case row.err == nil && err != nil:
				t.Fatalf("error %v, want a clean end", err)
			case row.err == nil:
				return
			case !errors.Is(err, row.err):
				t.Fatalf("error %v, want %v", err, row.err)
			}
			if trace.IsCorrupt(err) != row.corrupt {
				t.Errorf("IsCorrupt(%v) = %v, want %v", err, !row.corrupt, row.corrupt)
			}
			if !strings.Contains(err.Error(), row.msg) {
				t.Errorf("error %q does not say %q", err, row.msg)
			}
		})
	}
}

// drainWithin reads src to its end, checking every delivered record
// against edgeRecord, and fails the test if that takes longer than limit
// (a Reader that spins on a stalled source never returns).
func drainWithin(t *testing.T, src io.Reader, limit time.Duration) (int, error) {
	t.Helper()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		r, err := trace.NewReader(src)
		if err != nil {
			done <- result{0, err}
			return
		}
		var rec trace.Record
		n := 0
		for r.Next(&rec) {
			if want := edgeRecord(n); rec != want {
				done <- result{n, fmt.Errorf("record %d: got %+v, want %+v", n, rec, want)}
				return
			}
			n++
		}
		done <- result{n, r.Err()}
	}()
	select {
	case res := <-done:
		return res.n, res.err
	case <-time.After(limit):
		t.Fatalf("the Reader did not return within %v", limit)
		return 0, nil
	}
}
