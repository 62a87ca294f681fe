package core

import "math/bits"

// issueRing tracks per-cycle issue-bandwidth consumption over the *live*
// cycle range of the scheduler: the cycles at or above the window entry
// frontier. It replaces the old `issued map[int64]int32`, which kept one
// entry for every cycle ever issued to and therefore grew without bound
// over a long trace — a memory leak on multi-million-instruction runs —
// and paid map hashing on every issue-slot probe.
//
// The ring exploits two scheduler invariants (asserted by SelfCheck):
//
//  1. Every issue-slot query is at or above the window entry frontier
//     (an instruction can never issue before it enters the window), so
//     cycles below the frontier are dead: their counts can never be read
//     or written again.
//  2. The frontier is monotone non-decreasing (window slots free in
//     non-decreasing cycle order: window entry always frees the earliest
//     in-window issue, which the ring itself supplies — see
//     (*sched).free), so the live range only ever slides forward.
//
// Counts live in a power-of-two slice indexed by cycle&mask. advance
// slides the lower bound forward, zeroing the vacated slots so they are
// clean when the ring wraps onto them; ensure grows the ring (rare — the
// live span is bounded by O(window x max-latency)) when a query outruns
// the capacity. Steady-state cost per query: one mask, one compare — no
// hashing, no allocation, O(window)-bounded memory.
type issueRing struct {
	counts []int32
	mask   int64
	base   int64 // lowest live cycle; counts below base are dead and zeroed
}

// newIssueRing returns a ring with capacity for at least size cycles
// (rounded up to a power of two, minimum 16) whose live range starts at
// cycle 1, the first schedulable cycle.
func newIssueRing(size int64) issueRing {
	if size < 16 {
		size = 16
	}
	size = roundUpPow2(size)
	return issueRing{counts: make([]int32, size), mask: size - 1, base: 1}
}

// roundUpPow2 rounds v up to the next power of two. v must be positive and
// at most 1<<62. Unlike the old one-at-a-time increment loop (O(v) for a
// just-past-a-power-of-two v), this is O(1) via the bit length.
func roundUpPow2(v int64) int64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(v-1))
}

// advance slides the live range's lower bound up to frontier, zeroing the
// vacated slots. Frontiers at or below the current base are no-ops, so
// callers can pass every window-entry cycle unconditionally. Amortized
// cost over a run: one clear per cycle the simulation ever advances.
func (r *issueRing) advance(frontier int64) {
	if frontier <= r.base {
		return
	}
	if frontier-r.base >= int64(len(r.counts)) {
		// The whole ring is behind the new frontier.
		clear(r.counts)
	} else {
		for c := r.base; c < frontier; c++ {
			r.counts[c&r.mask] = 0
		}
	}
	r.base = frontier
}

// ensure grows the ring so cycle t is addressable, preserving the live
// counts in [base, top]. top is the highest cycle ever written (the
// scheduler's maxIssue); everything above it is zero by construction.
func (r *issueRing) ensure(t, top int64) {
	n := int64(len(r.counts))
	if t-r.base < n {
		return
	}
	for t-r.base >= n {
		n *= 2
	}
	grown := make([]int32, n)
	newMask := n - 1
	for c := r.base; c <= top; c++ {
		grown[c&newMask] = r.counts[c&r.mask]
	}
	r.counts = grown
	r.mask = newMask
}

// at returns the issue count recorded for cycle t. Cycles outside the
// addressable range read as zero; cycles below base are dead (asking for
// them is a caller bug, tolerated as zero for the self-check sweep).
func (r *issueRing) at(t int64) int32 {
	if t < r.base || t-r.base >= int64(len(r.counts)) {
		return 0
	}
	return r.counts[t&r.mask]
}

// capacity reports the ring's current slot count (test hook: the
// long-trace memory-bound test asserts this stays O(window), independent
// of trace length).
func (r *issueRing) capacity() int { return len(r.counts) }
