package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds reports the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapPeak tracks the largest post-GC live heap (/gc/heap/live:bytes)
// between start and stop. The metric changes only when a GC cycle ends, so
// a finalizer re-armed every cycle reads it after each collection, and a
// 2ms ticker backs the finalizer up when it runs late.
type heapPeak struct {
	mu      sync.Mutex
	max     uint64
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

type gcSentinel struct{ h *heapPeak }

func startHeapPeak() *heapPeak {
	// Start from a collected heap, so the first sample is this phase's.
	// The second collection catches what the previous phase's goroutines
	// (server connections closing, say) still held during the first.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	h.arm()
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapPeak) arm() {
	s := &gcSentinel{h: h}
	runtime.SetFinalizer(s, func(s *gcSentinel) {
		s.h.observe()
		s.h.mu.Lock()
		stopped := s.h.stopped
		s.h.mu.Unlock()
		if !stopped {
			s.h.arm()
		}
	})
}

func (h *heapPeak) observe() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := sample[0].Value.Uint64()
	h.mu.Lock()
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// finish stops sampling and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return float64(h.max) / (1 << 20)
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q*n from rounding up past an exact rank (0.999*10000).
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile returns the nearest-rank q-quantile (0 <= q <= 1) of xs, or 0
// for no samples. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder tailPct climbs, highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPct returns the highest percentile of the ladder, capped at limit,
// that has at least minBeyond samples beyond it, and its value. With too
// few samples for even the median it returns (0, max).
func tailPct(xs []float64, limit float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if p <= limit && beyond(len(xs), p) >= minBeyond {
			return p, quantile(xs, p/100)
		}
	}
	return 0, quantile(xs, 1)
}

// beyond is how many of n samples lie above the nearest-rank percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p/100)
}

// ratio is a quotient kept together with its base, so every printed ratio
// shows what it divides.
type ratio struct {
	Num, Den float64
	What     string // e.g. "cache hits / cells"
}

// Value is Num/Den, or 0 for an empty base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (= %.6g / %.6g %s)", r.Value(), r.Num, r.Den, r.What)
}

// repStats is what one timed repetition measured.
type repStats struct {
	Traced       bool
	Wall, CPU    float64 // seconds
	HeapMiB      float64
	Instructions int64 // simulated instructions completed in the repetition
	Ops          int   // operations attempted
	Failed       int   // operations failed
}

// repeat runs unit back to back until the measurement window is used: a
// repetition starts only while the previous one would still fit. With
// tracing, repetitions alternate untraced and traced (untraced first) and
// at least two run, so the traced run can price its own tracing.
func repeat(seconds float64, traced bool, unit func(rep int, traced bool) (repStats, error)) ([]repStats, error) {
	var out []repStats
	start := time.Now()
	last := 0.0
	for rep := 0; ; rep++ {
		elapsed := time.Since(start).Seconds()
		minReps := 1
		if traced {
			minReps = 2
		}
		if rep >= minReps && elapsed+last > seconds {
			break
		}
		var st repStats
		var err error
		m := measure(func() { st, err = unit(rep, traced && rep%2 == 1) })
		st.Wall, st.CPU, st.HeapMiB = m.Wall, m.CPU, m.HeapMiB
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		st.Traced = traced && rep%2 == 1
		out = append(out, st)
		last = st.Wall
	}
	return out, nil
}

// measure runs fn and returns its wall time, CPU time and live-heap peak.
func measure(fn func()) repStats {
	h := startHeapPeak()
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	return repStats{Wall: time.Since(t0).Seconds(), CPU: cpuSeconds() - c0, HeapMiB: h.finish()}
}

// medianSetup runs set-up n times and returns the median duration; the
// last set-up's state is the one the timed phase uses.
func medianSetup(n int, setup func(last bool) error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// repMetrics folds the untraced repetitions into the repetition-level
// end-to-end metrics: medians over repetitions. The live-heap peak is a
// per-layer metric: on cluster-sweep it jumps by the 16 MiB a worker's VM
// allocates whenever a collection catches one more regeneration in flight,
// so its median moved 11-25% between runs of identical code.
func repMetrics(reps []repStats, m map[string]float64, res *result) {
	var wall, cpu, heap, rate []float64
	for _, r := range reps {
		if r.Traced {
			continue
		}
		wall = append(wall, r.Wall)
		cpu = append(cpu, r.CPU)
		heap = append(heap, r.HeapMiB)
		rate = append(rate, float64(r.Instructions)/r.Wall/1e6)
	}
	m["wall_s"] = median(wall)
	m["cpu_s"] = median(cpu)
	res.layer("peak_live_heap_mib", median(heap))
	m["sim_minstr_per_s"] = median(rate)
	res.note("repetition wall_s", fmt.Sprintf("%d untraced: min %.4g median %.4g max %.4g", len(wall), quantile(wall, 0), median(wall), quantile(wall, 1)))
	res.note("repetition cpu_s", fmt.Sprintf("min %.4g median %.4g max %.4g", quantile(cpu, 0), median(cpu), quantile(cpu, 1)))
	res.note("repetition peak_live_heap_mib", fmt.Sprintf("min %.4g median %.4g max %.4g", quantile(heap, 0), median(heap), quantile(heap, 1)))
}

// tracingOverhead compares traced with untraced repetitions: the percent
// by which the traced median wall time exceeds the untraced one.
func tracingOverhead(reps []repStats, res *result) {
	var tw, uw, tc, uc []float64
	for _, r := range reps {
		if r.Traced {
			tw, tc = append(tw, r.Wall), append(tc, r.CPU)
		} else {
			uw, uc = append(uw, r.Wall), append(uc, r.CPU)
		}
	}
	wall := ratio{median(tw) - median(uw), median(uw), "s extra traced wall / s untraced wall"}
	cpu := ratio{median(tc) - median(uc), median(uc), "s extra traced CPU / s untraced CPU"}
	res.layer("tracing_overhead_pct", 100*wall.Value())
	res.note("tracing_overhead_pct (wall)", wall.String())
	res.note("tracing overhead (cpu)", cpu.String())
}
