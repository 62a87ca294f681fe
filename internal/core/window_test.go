package core

import (
	"container/heap"
	"context"
	"errors"
	"math/rand"
	"testing"
)

// cycleHeap is the reference window: a plain min-heap of in-window issue
// cycles, the structure the ring-derived window entry replaced.
type cycleHeap []int64

func (h cycleHeap) Len() int           { return len(h) }
func (h cycleHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h cycleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cycleHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *cycleHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TestWindowEntryMatchesHeapReference is the property test for window
// entry: over randomized issue schedules, most of them piling many
// instructions onto one hot cycle so freeing walks long runs of ties, the
// entry cycle derived from the issue ring must equal the one a min-heap of
// in-window issue times yields, and the self-check sweep (which holds the
// window-occupancy identity) must stay clean.
func TestWindowEntryMatchesHeapReference(t *testing.T) {
	shapes := []struct{ width, window int }{
		{1, 1}, {1, 2}, {2, 3}, {4, 8}, {8, 7}, {64, 16}, {16, 4096}, {2048, 4096},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(sh.width*7+sh.window)))
			s := newSched(ConfigA, Params{Width: sh.width, WindowSize: sh.window})
			ref := &cycleHeap{}
			hot := int64(1)
			for seq := int64(0); seq < 20_000; seq++ {
				want := int64(1)
				if ref.Len() == sh.window {
					want = heap.Pop(ref).(int64) + 1
				}
				got := s.enter(seq)
				if s.err != nil {
					t.Fatalf("width %d window %d seed %d seq %d: %v", sh.width, sh.window, seed, seq, s.err)
				}
				if got != want {
					t.Fatalf("width %d window %d seed %d seq %d: ring entry %d, heap reference %d",
						sh.width, sh.window, seed, seq, got, want)
				}
				if rng.Intn(50) == 0 {
					hot += int64(rng.Intn(4))
				}
				var lower int64
				switch r := rng.Intn(100); {
				case r < 70:
					lower = hot // ties: many issues requested at one cycle
				case r < 90:
					lower = got + int64(rng.Intn(8))
				case r < 99:
					lower = got + int64(rng.Intn(40))
				default:
					lower = got + int64(rng.Intn(3000)) // forces ring growth and long scans
				}
				heap.Push(ref, s.slotted(max64(lower, got)))
				s.seq = seq + 1
				if seq%997 == 0 {
					if e := s.selfCheck(); e != nil {
						t.Fatalf("width %d window %d seed %d seq %d: %v", sh.width, sh.window, seed, seq, e)
					}
				}
			}
			if e := s.selfCheck(); e != nil {
				t.Fatalf("width %d window %d seed %d: final sweep: %v", sh.width, sh.window, seed, e)
			}
		}
	}
}

// TestSelfCheckCatchesCorruptWindow is the negative control for the
// window and bandwidth invariants: corrupting the tie count or a ring
// count mid-run must fail the run with the named invariant, whether the
// self-check sweep or window entry itself notices first.
func TestSelfCheckCatchesCorruptWindow(t *testing.T) {
	cases := []struct {
		name      string
		selfCheck bool
		corrupt   func(s *sched)
		want      string
	}{
		{"ties over-count", true, func(s *sched) { s.ties += 3 }, "window-occupancy"},
		{"ring under-count", true, func(s *sched) { s.issue.counts[s.maxIssue&s.issue.mask]-- }, "window-occupancy"},
		{"count above width", true, func(s *sched) { s.issue.counts[s.maxIssue&s.issue.mask] = int32(s.p.Width) + 1 }, "issue-bandwidth"},
		// With no sweep armed, a full window whose ring is empty must not
		// spin looking for the next free slot.
		{"empty ring, no sweep", false, func(s *sched) { clear(s.issue.counts); s.ties = 0 }, "window-occupancy"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The heartbeat at record 1000 corrupts the back end just
			// before it schedules the record at index 1000.
			var s *sched
			b := oneCell(t, ConfigD, Params{Width: 4, SelfCheck: c.selfCheck, SelfCheckEvery: 1,
				ProgressEvery: 1_000, Progress: func(p Progress) {
					if p.Records == 1_000 {
						c.corrupt(s)
					}
				}})
			s = b.bes[0]
			outs, _ := b.Run(context.Background(), synthTrace(2_000).Reader())
			err := outs[0].Err
			var ie *InvariantError
			if !errors.As(err, &ie) {
				t.Fatalf("corrupted run returned %v, want *InvariantError", err)
			}
			if ie.Invariant != c.want {
				t.Fatalf("corrupted run violated %q (%v), want %q", ie.Invariant, ie, c.want)
			}
			if ie.Seq < 1_000 || ie.Seq > 1_001 {
				t.Fatalf("violation reported at instruction %d, want right after the corruption at 1000", ie.Seq)
			}
		})
	}
	// The same run without corruption passes every sweep.
	if _, err := RunChecked(context.Background(), synthTrace(2_000).Reader(), ConfigD,
		Params{Width: 4, SelfCheck: true, SelfCheckEvery: 1}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}
