package core

import (
	"context"
	"math/rand"
	"testing"
)

func TestRoundUpPow2Boundaries(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {7, 8}, {8, 8}, {9, 16},
		{15, 16}, {16, 16}, {17, 32}, {31, 32}, {33, 64},
		{1023, 1024}, {1024, 1024}, {1025, 2048},
		{(1 << 40) - 1, 1 << 40}, {1 << 40, 1 << 40}, {(1 << 40) + 1, 1 << 41},
	}
	for _, c := range cases {
		if got := roundUpPow2(c.in); got != c.want {
			t.Errorf("roundUpPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// mapSlotter is the pre-ring reference implementation of issue-bandwidth
// accounting: one map entry per cycle ever issued to (the memory leak the
// ring fixed), scanned one cycle at a time.
type mapSlotter struct {
	counts map[int64]int32
	w      int32
}

func (m *mapSlotter) slotted(t int64) int64 {
	for {
		if m.counts[t] < m.w {
			m.counts[t]++
			return t
		}
		t++
	}
}

// ringSlotter drives an issueRing exactly the way sched.slotted does.
type ringSlotter struct {
	r   issueRing
	max int64
	w   int32
}

func (rs *ringSlotter) slotted(t int64) int64 {
	for {
		rs.r.ensure(t, rs.max)
		idx := t & rs.r.mask
		if rs.r.counts[idx] < rs.w {
			rs.r.counts[idx]++
			if t > rs.max {
				rs.max = t
			}
			return t
		}
		t++
	}
}

// TestIssueRingMatchesMapReference is the property test for the ring
// rewrite: over randomized schedules that respect the scheduler's contract
// (queries at or above a monotone non-decreasing frontier), the ring must
// hand out exactly the cycles the old map implementation did.
func TestIssueRingMatchesMapReference(t *testing.T) {
	for _, width := range []int32{1, 2, 4, 8} {
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(seed*97 + int64(width)))
			ring := &ringSlotter{r: newIssueRing(16), w: width}
			ref := &mapSlotter{counts: make(map[int64]int32), w: width}
			frontier := int64(1)
			for i := 0; i < 12_000; i++ {
				// Advance the frontier a random (sometimes large) step, as
				// window-slot frees do; passing it unconditionally mirrors
				// sched.visit.
				if rng.Intn(4) == 0 {
					step := int64(rng.Intn(3))
					if rng.Intn(500) == 0 {
						step = int64(rng.Intn(5000)) // jump past the whole ring
					}
					frontier += step
				}
				ring.r.advance(frontier)
				// Query somewhere at or above the frontier; occasionally far
				// above, forcing ensure() growth.
				span := int64(rng.Intn(24))
				if rng.Intn(100) == 0 {
					span = int64(rng.Intn(3000))
				}
				lower := frontier + span
				got, want := ring.slotted(lower), ref.slotted(lower)
				if got != want {
					t.Fatalf("width %d seed %d op %d: ring slotted(%d) = %d, map reference = %d",
						width, seed, i, lower, got, want)
				}
			}
			// Cross-check the final live counts cycle by cycle.
			for c := frontier; c <= ring.max; c++ {
				if got, want := ring.r.at(c), ref.counts[c]; got != want {
					t.Fatalf("width %d seed %d: cycle %d count %d, reference %d", width, seed, c, got, want)
				}
			}
		}
	}
}

func TestIssueRingAdvanceAndAt(t *testing.T) {
	r := newIssueRing(16)
	if r.capacity() != 16 {
		t.Fatalf("capacity = %d, want 16", r.capacity())
	}
	r.counts[3&r.mask] = 2
	r.counts[5&r.mask] = 1
	r.advance(4) // cycle 3 is now dead
	if got := r.at(3); got != 0 {
		t.Errorf("dead cycle 3 reads %d, want 0", got)
	}
	if got := r.at(5); got != 1 {
		t.Errorf("live cycle 5 reads %d, want 1", got)
	}
	r.advance(4) // no-op: frontier not past base
	if got := r.at(5); got != 1 {
		t.Errorf("after no-op advance, cycle 5 reads %d, want 1", got)
	}
	// Jump the frontier past the whole ring: everything must clear.
	r.advance(4 + int64(r.capacity()) + 7)
	for c := r.base; c < r.base+int64(r.capacity()); c++ {
		if got := r.at(c); got != 0 {
			t.Fatalf("after full-ring jump, cycle %d reads %d, want 0", c, got)
		}
	}
}

// TestIssueRingMemoryBounded is the long-trace memory-bound test: the
// issue-bandwidth structure must stay O(window), independent of trace
// length. Before the rewrite the `issued` map held one entry per cycle of
// the whole run (~hundreds of thousands for this trace).
func TestIssueRingMemoryBounded(t *testing.T) {
	capAfter := func(n int) int {
		b := oneCell(t, ConfigD, Params{Width: 8})
		if _, err := b.Run(context.Background(), synthTrace(n).Reader()); err != nil {
			t.Fatal(err)
		}
		return b.bes[0].issue.capacity()
	}
	short, long := capAfter(2_000), capAfter(200_000)
	if short != long {
		t.Errorf("issue ring capacity grew with trace length: %d after 2k, %d after 200k", short, long)
	}
	// O(window): the default window at width 8 is 16; the ring starts at
	// 4x window and must never need more than a small constant multiple
	// (live span is bounded by window x max operation latency).
	if long > 1024 {
		t.Errorf("issue ring capacity = %d, want O(window) (<= 1024)", long)
	}
}
