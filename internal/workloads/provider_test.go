package workloads

// Provider-equivalence property tests: the trace plane's three strategies
// (materialized buffer, disk spool, deterministic regeneration) must be
// observationally identical — same content hash, and byte-identical
// simulation results on the oracle grid. Everything above the provider
// (runner, store keys, cluster cells) relies on this interchangeability.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// equivalenceGrid is the (config, width) slice of the oracle grid the
// equivalence results are compared on — the paper's headline config plus
// the baseline, at two widths.
var equivalenceGrid = []struct {
	cfg   core.Config
	width int
}{
	{core.ConfigA, 4},
	{core.ConfigD, 8},
}

func TestProviderEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"espresso", "li"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scale := w.DefaultScale / 4
		t.Run(name, func(t *testing.T) {
			buffered, err := w.Provider(ctx, scale, ProviderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			spooled, err := w.Provider(ctx, scale, ProviderOptions{SpoolDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			// MaxMem of one byte fits zero records, forcing the
			// regeneration strategy for any non-empty trace.
			regen, err := w.Provider(ctx, scale, ProviderOptions{MaxMem: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := regen.(*trace.RegenProvider); !ok {
				t.Fatalf("MaxMem=1 yielded %T, want *trace.RegenProvider", regen)
			}
			if _, ok := spooled.(*trace.Spool); !ok {
				t.Fatalf("SpoolDir yielded %T, want *trace.Spool", spooled)
			}

			provs := map[string]trace.Provider{
				"buffer": buffered, "spool": spooled, "regen": regen,
			}
			wantHash, wantN, err := buffered.ContentHash()
			if err != nil {
				t.Fatal(err)
			}
			for pname, p := range provs {
				h, n, err := p.ContentHash()
				if err != nil {
					t.Fatalf("%s: ContentHash: %v", pname, err)
				}
				if h != wantHash || n != wantN {
					t.Fatalf("%s: hash/count = %#x/%d, buffer = %#x/%d",
						pname, h, n, wantHash, wantN)
				}
			}

			for _, cell := range equivalenceGrid {
				var ref *core.Result
				for _, pname := range []string{"buffer", "spool", "regen"} {
					src, err := provs[pname].Open()
					if err != nil {
						t.Fatalf("%s: Open: %v", pname, err)
					}
					res := core.Run(src, cell.cfg, core.Params{Width: cell.width})
					if err := trace.SourceErr(src); err != nil {
						t.Fatalf("%s: stream: %v", pname, err)
					}
					if ref == nil {
						ref = res
						continue
					}
					if d := ref.Diff(res); d != nil {
						t.Errorf("%s/%s width %d: result differs from buffer: %v",
							pname, cell.cfg.Name, cell.width, d)
					}
				}
			}
		})
	}
}

// TestProviderSpoolReuse: a second Provider call over the same spool dir
// must reuse the committed spool (validated, not regenerated) and report
// the identical content identity. Flushing the memo in between makes the
// second call open the spool from disk, as a later process would.
func TestProviderSpoolReuse(t *testing.T) {
	ctx := context.Background()
	w, err := ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	scale := w.DefaultScale / 4
	p1, err := w.Provider(ctx, scale, ProviderOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h1, n1, err := p1.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	FlushCache()
	p2, err := w.Provider(ctx, scale, ProviderOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h2, n2, err := p2.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || n1 != n2 {
		t.Fatalf("spool reuse changed identity: (%#x,%d) vs (%#x,%d)", h1, n1, h2, n2)
	}
	if p1.(*trace.Spool).Path() != p2.(*trace.Spool).Path() {
		t.Fatalf("spool paths differ: %s vs %s", p1.(*trace.Spool).Path(), p2.(*trace.Spool).Path())
	}
}

// TestProviderMemoOutlivesCallerContext: concurrent callers share one
// memoized provider per (workload, scale, options), TraceCached reads the
// same memo, and a memoized regenerator keeps working after the context of
// the calls that created it is canceled.
func TestProviderMemoOutlivesCallerContext(t *testing.T) {
	w, err := ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	scale := w.DefaultScale / 4
	ctx, cancel := context.WithCancel(context.Background())
	provs := make([]trace.Provider, 4)
	var wg sync.WaitGroup
	for i := range provs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := w.Provider(ctx, scale, ProviderOptions{MaxMem: 1})
			if err != nil {
				t.Error(err)
			}
			provs[i] = p
		}(i)
	}
	wg.Wait()
	cancel()
	regen := provs[0]
	for i, p := range provs {
		if p == nil || p != regen {
			t.Fatalf("caller %d got provider %p, caller 0 got %p; want one memoized provider", i, p, regen)
		}
	}
	again, err := w.Provider(context.Background(), scale, ProviderOptions{MaxMem: 1})
	if err != nil || again != regen {
		t.Fatalf("later Provider call = %p, %v; want the memoized %p", again, err, regen)
	}
	buf, _, err := w.TraceCached(scale)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := w.Provider(ctx, scale, ProviderOptions{}); err != nil || p != trace.Provider(buf) {
		t.Fatalf("Provider with zero options = %p, %v; want TraceCached's buffer %p", p, err, buf)
	}

	src, err := regen.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer trace.CloseSource(src)
	h, n, err := trace.ContentHash(src)
	if err != nil {
		t.Fatalf("regenerating after the creating context was canceled: %v", err)
	}
	if wh, wn, _ := buf.ContentHash(); h != wh || n != wn {
		t.Fatalf("regenerated %#x/%d, buffer %#x/%d", h, n, wh, wn)
	}
}
