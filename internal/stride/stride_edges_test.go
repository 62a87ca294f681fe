package stride

import (
	"fmt"
	"testing"
)

// Table-driven edge tests for the confidence counter and the two-delta
// stride rule. Each scenario walks an explicit event sequence through one
// predictor entry and pins the externally observable state (prediction
// correctness and the confident bit) after every single update, so a
// regression in the +Reward/−Penalty arithmetic, the saturation bounds, or
// the >1 use-threshold shows up at the exact step where it diverges.

// confStep is one Update call and the expected observable state after it.
type confStep struct {
	addr          uint32
	wantCorrect   bool // Update's report for this access
	wantConfident bool // Lookup().Confident after the update
}

func TestConfidenceTrajectoryTable(t *testing.T) {
	const pc = 0x4000

	cases := []struct {
		name   string
		policy Policy
		steps  []confStep
	}{
		{
			// Paper policy, constant address: counter climbs 0,1,2,3 and
			// saturates; confident exactly once the counter exceeds 1.
			name:   "paper/climb-and-saturate",
			policy: PaperPolicy(),
			steps: []confStep{
				{addr: 100},                    // cold init, no prediction
				{addr: 100, wantCorrect: true}, // conf 1: correct but below threshold
				{addr: 100, wantCorrect: true, wantConfident: true}, // conf 2: crosses ">1"
				{addr: 100, wantCorrect: true, wantConfident: true}, // conf 3: saturated
				{addr: 100, wantCorrect: true, wantConfident: true}, // conf stays 3 (no overflow past Max)
			},
		},
		{
			// The −2 penalty is asymmetric: one miss undoes two hits, and a
			// second miss floors the counter at zero without wrapping.
			name:   "paper/penalty-and-floor",
			policy: PaperPolicy(),
			steps: []confStep{
				{addr: 100},
				{addr: 100, wantCorrect: true}, // conf 1
				{addr: 100, wantCorrect: true, wantConfident: true}, // conf 2
				{addr: 100, wantCorrect: true, wantConfident: true}, // conf 3
				{addr: 500}, // miss: 3-2 = 1, loses confidence
				// Stride is still 0 (the 400 delta appeared once, so
				// two-delta keeps it as candidate only) and lastAddr is
				// 500: the constant address hits, conf 1+1 = 2, confident.
				{addr: 500, wantCorrect: true, wantConfident: true},
			},
		},
		{
			// From the floor, re-earning use-confidence takes two hits.
			name:   "paper/recovery-from-floor",
			policy: PaperPolicy(),
			steps: []confStep{
				{addr: 100},
				{addr: 200},                    // miss (predicted 100): conf 0-2 floors at 0
				{addr: 999},                    // miss: conf stays 0 (no underflow wrap); deltas 100,799 never repeat
				{addr: 999, wantCorrect: true}, // conf 1 (stride 0 predicts 999)
				{addr: 999, wantCorrect: true, wantConfident: true}, // conf 2
			},
		},
		{
			// Threshold 0 means every valid entry is usable immediately.
			name:   "threshold-zero/always-confident",
			policy: Policy{Reward: 1, Penalty: 2, Threshold: 0, Max: 3},
			steps: []confStep{
				{addr: 100, wantConfident: true},
				{addr: 999, wantConfident: true}, // miss, conf 0, still >= threshold
			},
		},
		{
			// Reward larger than Max-conf saturates rather than overflowing:
			// Reward 3 from conf 1 must clamp to Max 3, not wrap the uint8.
			name:   "big-reward/saturates",
			policy: Policy{Reward: 3, Penalty: 1, Threshold: 2, Max: 3},
			steps: []confStep{
				{addr: 100},
				{addr: 100, wantCorrect: true, wantConfident: true}, // conf 0+3 = 3
				{addr: 100, wantCorrect: true, wantConfident: true}, // clamp at 3
				{addr: 900, wantConfident: true},                    // miss: 3-1 = 2, still confident
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewWithPolicy(6, tc.policy)
			for i, s := range tc.steps {
				got := p.Update(pc, s.addr)
				if got != s.wantCorrect {
					t.Fatalf("step %d (addr %d): Update correct = %v, want %v", i, s.addr, got, s.wantCorrect)
				}
				if pred := p.Lookup(pc); pred.Confident != s.wantConfident {
					t.Fatalf("step %d (addr %d): Confident = %v, want %v", i, s.addr, pred.Confident, s.wantConfident)
				}
			}
		})
	}
}

// TestUseThresholdIsStrictlyGreaterThanOne pins the paper's wording: the
// predicted address is used "only when the counter value is greater than
// 1". A counter of exactly 1 — one net correct prediction — must NOT be
// confident, and a counter of 2 must be.
func TestUseThresholdIsStrictlyGreaterThanOne(t *testing.T) {
	p := NewPaper()
	const pc = 0x1234
	p.Update(pc, 64) // init
	if p.Update(pc, 64) != true {
		t.Fatal("constant address not predicted after init")
	}
	if p.Lookup(pc).Confident {
		t.Fatal("counter value 1 must not clear the >1 use threshold")
	}
	p.Update(pc, 64)
	if !p.Lookup(pc).Confident {
		t.Fatal("counter value 2 must clear the >1 use threshold")
	}
}

// twoDeltaCase drives one entry through a delta sequence and checks the
// stride the table ends up predicting with (lookup address minus the last
// trained address).
func TestTwoDeltaCandidateFilterTable(t *testing.T) {
	cases := []struct {
		name       string
		deltas     []int32
		wantStride int32
	}{
		{"repeat-adopts", []int32{4, 4}, 4},
		{"single-delta-is-only-candidate", []int32{4}, 0},
		{"change-needs-confirmation", []int32{4, 4, 8}, 4},
		{"confirmed-change-adopts", []int32{4, 4, 8, 8}, 8},
		{"alternating-never-adopts", []int32{4, 8, 4, 8, 4, 8}, 0},
		{"glitch-is-filtered", []int32{4, 4, 12, 4, 4}, 4},
		{"negative-stride-adopts", []int32{-8, -8}, -8},
		{"sign-flip-needs-two", []int32{8, 8, -8}, 8},
		{"sign-flip-confirmed", []int32{8, 8, -8, -8}, -8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPaper()
			const pc = 0x40
			addr := uint32(1 << 20)
			p.Update(pc, addr) // init
			for _, d := range tc.deltas {
				addr = uint32(int32(addr) + d)
				p.Update(pc, addr)
			}
			pred := p.Lookup(pc)
			if !pred.Valid {
				t.Fatal("entry not valid after training")
			}
			if got := int32(pred.Addr - addr); got != tc.wantStride {
				t.Fatalf("deltas %v: predicting stride %d, want %d", tc.deltas, got, tc.wantStride)
			}
		})
	}
}

// TestAliasEvictionTable exercises the direct-mapped conflict cases in the
// paper's 4096-entry table: PCs 2^12 apart share an entry and destroy each
// other's history, while PCs in distinct sets train independently.
func TestAliasEvictionTable(t *testing.T) {
	const n = 1 << DefaultLogEntries

	cases := []struct {
		name    string
		pcA     uint32
		pcB     uint32
		collide bool
	}{
		{"same-set-wraparound", 0x100, 0x100 + n, true},
		{"same-set-double-wrap", 0x100, 0x100 + 2*n, true},
		{"adjacent-sets-independent", 0x100, 0x101, false},
		{"distant-sets-independent", 0x100, 0x100 + n/2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPaper()
			// Train pcA to a confident +4 stride.
			addr := uint32(0x1000)
			p.Update(tc.pcA, addr)
			for i := 0; i < 6; i++ {
				addr += 4
				p.Update(tc.pcA, addr)
			}
			if pred := p.Lookup(tc.pcA); !pred.Confident || pred.Addr != addr+4 {
				t.Fatalf("pcA not trained: %+v (want addr %d)", pred, addr+4)
			}

			// One interloper access from pcB with unrelated addresses.
			p.Update(tc.pcB, 0x900000)
			p.Update(tc.pcB, 0x900100)

			pred := p.Lookup(tc.pcA)
			if tc.collide {
				// The shared entry now holds pcB's history: pcA's next
				// access is mispredicted and pays the confidence penalty.
				if pred.Addr == addr+4 {
					t.Fatal("aliased entry still predicts pcA's stride after eviction")
				}
				if p.Update(tc.pcA, addr+4) {
					t.Fatal("post-eviction access must be a misprediction")
				}
			} else {
				// Distinct sets: pcA's stream is untouched and keeps
				// predicting correctly.
				if !pred.Confident || pred.Addr != addr+4 {
					t.Fatalf("non-aliasing pcB disturbed pcA's entry: %+v", pred)
				}
				if !p.Update(tc.pcA, addr+4) {
					t.Fatal("pcA's prediction must survive a non-aliasing access")
				}
			}
		})
	}
}

// TestAliasIndexBits documents the indexing function: the entry index is
// the PC's low DefaultLogEntries bits, so exactly PCs congruent mod 2^12
// collide in the paper configuration.
func TestAliasIndexBits(t *testing.T) {
	p := NewPaper()
	if p.Len() != 1<<DefaultLogEntries {
		t.Fatalf("paper table has %d entries, want %d", p.Len(), 1<<DefaultLogEntries)
	}
	for _, pc := range []uint32{0, 1, 4095, 4096, 1 << 20} {
		t.Run(fmt.Sprintf("pc%d", pc), func(t *testing.T) {
			p.Reset()
			p.Update(pc, 8)
			alias := pc + uint32(p.Len())
			if !p.Lookup(alias).Valid {
				t.Fatalf("pc %d and pc %d must share an entry", pc, alias)
			}
			if p.Lookup(pc+1).Valid && p.Len() > 1 {
				t.Fatalf("pc %d must not share an entry with pc %d", pc, pc+1)
			}
		})
	}
}
