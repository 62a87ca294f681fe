package perf

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestMInstrPerSec(t *testing.T) {
	if got := MInstrPerSec(2_000_000, 2); got != 1 {
		t.Errorf("MInstrPerSec(2M, 2s) = %v, want 1", got)
	}
	if got := MInstrPerSec(1000, 0); got != 0 {
		t.Errorf("MInstrPerSec(_, 0) = %v, want 0 (not Inf)", got)
	}
	if got := MInstrPerSec(1000, -1); got != 0 {
		t.Errorf("MInstrPerSec(_, -1) = %v, want 0", got)
	}
}

func TestCollectorSummary(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				c.Record(Cell{Workload: "w", Config: "D", Width: 8, Instructions: 1000, Seconds: 0.001})
			}
		}()
	}
	wg.Wait()
	s := c.Summary()
	if s.Cells != 80 || s.Instructions != 80_000 {
		t.Fatalf("summary = %+v, want 80 cells, 80000 instructions", s)
	}
	if got := len(c.Cells()); got != 80 {
		t.Fatalf("Cells() len = %d, want 80", got)
	}
	if s.MInstrPerSec() < 0.5 {
		t.Fatalf("summary throughput = %v, want ~1 MInstr/s", s.MInstrPerSec())
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	rep := NewReport([]Point{
		{Name: "b/z", NsPerOp: 100, AllocsPerOp: 2, BytesPerOp: 64},
		{Name: "a/a", NsPerOp: 50, MInstrPerSec: 6.5},
	})
	if rep.Version != ReportVersion {
		t.Fatalf("NewReport version = %d, want %d", rep.Version, ReportVersion)
	}
	if rep.Points[0].Name != "a/a" || rep.Points[1].Name != "b/z" {
		t.Fatalf("NewReport did not sort points: %+v", rep.Points)
	}
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 2 || got.Points[1].NsPerOp != 100 || got.Points[0].MInstrPerSec != 6.5 {
		t.Fatalf("round trip mismatch: %+v", got.Points)
	}
}

func TestReadFileRejectsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	if err := os.WriteFile(path, []byte(`{"version": 99, "points": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a version-99 report")
	}
}

func TestCompareGate(t *testing.T) {
	base := NewReport([]Point{
		{Name: "sched", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "table1", NsPerOp: 2000, AllocsPerOp: 10},
		{Name: "removed", NsPerOp: 1, AllocsPerOp: 0},
	})
	got := NewReport([]Point{
		{Name: "sched", NsPerOp: 1099, AllocsPerOp: 0},   // +9.9%: passes at 10%
		{Name: "table1", NsPerOp: 2300, AllocsPerOp: 11}, // +15% ns/op AND +1 alloc
		{Name: "brand-new", NsPerOp: 5000, AllocsPerOp: 99},
	})
	regs := Compare(base, got, 0.10)
	if len(regs) != 2 {
		t.Fatalf("Compare found %d regressions, want 2: %v", len(regs), regs)
	}
	if regs[0].Name != "table1" || regs[0].Metric != "allocs/op" {
		t.Errorf("regs[0] = %+v, want table1 allocs/op", regs[0])
	}
	if regs[1].Name != "table1" || regs[1].Metric != "ns/op" {
		t.Errorf("regs[1] = %+v, want table1 ns/op", regs[1])
	}
	for _, r := range regs {
		if r.String() == "" {
			t.Errorf("empty String() for %+v", r)
		}
	}
	// Tighten the threshold: the sched point now regresses too.
	if regs := Compare(base, got, 0.05); len(regs) != 3 {
		t.Fatalf("Compare at 5%% found %d regressions, want 3: %v", len(regs), regs)
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCPUProfile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = MInstrPerSec(int64(i), 1)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeapProfile(filepath.Join(dir, "heap.pprof")); err != nil {
		t.Fatal(err)
	}
}
