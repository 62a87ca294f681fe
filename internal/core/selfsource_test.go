package core

import (
	"context"
	"testing"

	"repro/internal/isa"
)

// TestSelfSourcingChainKnownDefect pins a known defect, on purpose: visit
// overwrites the destination's rename-table entry before it snapshots
// the sources, so add r1, r1, 1 snapshots itself, with its srcReady still
// 0. A consumer then collapses "through" the same instruction twice, and
// a chain of increments collapses without bound: after ldi r1, 0, 1000
// increments run in one cycle at width 2048 (IPC 1001), as 999
// "arri arri arri" triples. Pairs-only collapsing cannot take the second
// step through the self-snapshot, so its chain stays serial.
//
// Snapshotting the sources before the overwrite bounds the chain by the
// collapsing device: IPC 3.00 under C at every width (the 4-1 device
// takes three increments per cycle) and 2.00 under pairs-only (the 3-1
// device takes two). That fix must flip this test, together with every
// C/D/E result, the golden fixtures, the oracle and the scale-30
// reference (see DESIGN.md Section 5).
func TestSelfSourcingChainKnownDefect(t *testing.T) {
	b := &tb{}
	b.add(ldi(1, 0))
	for i := 0; i < 1000; i++ {
		b.raw(1, aluImm(isa.Add, 1, 1, 1), 0, false)
	}
	pairs := ConfigC
	pairs.PairsOnly = true
	cases := []struct {
		cfg     Config
		width   int
		cycles  int64
		triples int64
	}{
		{ConfigC, 4, 251, 999},
		{ConfigC, 8, 126, 999},
		{ConfigC, 2048, 1, 999},
		{pairs, 4, 1000, 0},
		{pairs, 2048, 1000, 0},
	}
	for _, c := range cases {
		r, err := RunChecked(context.Background(), b.src(), c.cfg, Params{Width: c.width, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != c.cycles || r.TripleSigs["arri arri arri"] != c.triples {
			t.Errorf("pairs-only %t, width %d: %d cycles, %d arri arri arri triples; the defect gives %d and %d",
				c.cfg.PairsOnly, c.width, r.Cycles, r.TripleSigs["arri arri arri"], c.cycles, c.triples)
		}
	}
}
