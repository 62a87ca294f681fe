package core

import "testing"

// TestVisitZeroAllocSteadyState is the allocation regression test for the
// scheduler hot loop: once the back end's maps and ring are warm, its
// visit of a decoded record must not allocate at all. The per-cycle map
// entries in slotted, the signature strings in commitGroup, the recursive
// closure in chooseGroup and the per-visit defer were all removed for
// this; any of them would show up here as a fraction of an allocation
// per visit.
func TestVisitZeroAllocSteadyState(t *testing.T) {
	b := oneCell(t, ConfigD, Params{Width: 8})
	s := b.bes[0]

	// Warm up: the front end decodes every record once, populating the
	// static records and the address table; the first pass grows the
	// back end's maps and issue ring to steady state.
	recs := decodeAll(t, b, synthTrace(4_000).Reader())
	for i := range recs {
		s.visit(&recs[i])
	}

	// Steady state: replay the same decoded records and demand zero
	// allocations per back-end visit.
	i := 0
	avg := testing.AllocsPerRun(2_000, func() {
		s.visit(&recs[i%len(recs)])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state visit allocates %.3f allocs/op, want 0", avg)
	}
}
