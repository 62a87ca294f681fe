package core

// ChunkLen is the bank's chunk length, for the external tests that place
// a fault at one back end's record.
const ChunkLen = chunkLen

// CorruptWindow over-counts back end i's window: a mid-run state
// corruption that its window-occupancy invariant must catch.
func (b *Bank) CorruptWindow(i int) { b.bes[i].ties += 3 }
