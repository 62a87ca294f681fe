// Package depgraph computes the dynamic dependence-graph limit the paper's
// introduction frames the whole study around: "in theory, the minimum
// execution time of the program is the length of the longest path (i.e.
// the 'critical path') through the dependence graph".
//
// Analyze walks a dynamic trace once and computes that longest path
// through true register and memory dependences under infinite resources —
// no window, no issue-width, no control constraints (optionally, realistic
// branch prediction can be imposed to see how much of the limit control
// flow eats). It also extracts one critical path and reports its
// instruction-class composition: the classes that dominate the path are
// precisely the ones dependence collapsing and load speculation attack.
package depgraph

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Options selects the constraint model.
type Options struct {
	// RealBranches imposes the paper's misprediction rule (later
	// instructions start after the mispredicted branch finishes) using the
	// 8 kB McFarling predictor, instead of perfect control.
	RealBranches bool
}

// Report is the analysis result.
type Report struct {
	Instructions int64
	CriticalPath int64 // cycles along the longest dependence chain
	// LatestStart is the latest cycle any instruction may start at. An
	// unbounded scheduler (config A, width = window > trace length)
	// issues its last instruction there, so its Cycles is LatestStart+1.
	LatestStart int64

	// One longest path, characterized: how many instructions lie on it and
	// their class mix. When several paths tie, an arbitrary one is used.
	CritInstructions int64
	CritClasses      [isa.NumClasses]int64

	Mispredicts int64 // only populated with RealBranches
}

// IPC reports the dataflow-limit instructions per cycle.
func (r *Report) IPC() float64 {
	if r.CriticalPath == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.CriticalPath)
}

// CritClassPercent reports class c's share of the critical path in percent.
func (r *Report) CritClassPercent(c isa.Class) float64 {
	if r.CritInstructions == 0 {
		return 0
	}
	return 100 * float64(r.CritClasses[c]) / float64(r.CritInstructions)
}

type nodeRef struct {
	finish int64
	parent int64 // dynamic index of the dependence that determined start; -1 none
}

// Analyze computes the dependence-graph limit of the trace.
func Analyze(src trace.Source, opts Options) *Report {
	rep := &Report{}
	var (
		nodes   []nodeRef
		classes []isa.Class
		regDef  [isa.NumRegs]int64 // dynamic index of last writer; -1 initial
		stores  = make(map[uint32]int64)
		barrier int64 // finish time of the last mispredicted branch
		barIdx  int64 = -1
		pred    bpred.Predictor
		readBuf []uint8
	)
	for i := range regDef {
		regDef[i] = -1
	}
	if opts.RealBranches {
		pred = bpred.NewPaper8KB()
	}

	var rec trace.Record
	for src.Next(&rec) {
		idx := int64(len(nodes))
		in := &rec.Instr
		start := int64(0)
		parent := int64(-1)

		consider := func(depIdx int64) {
			if depIdx < 0 {
				return
			}
			if f := nodes[depIdx].finish; f > start {
				start = f
				parent = depIdx
			}
		}

		readBuf = in.Reads(readBuf[:0])
		for _, r := range readBuf {
			if r != isa.R0 {
				consider(regDef[r])
			}
		}
		if in.Op == isa.Ld {
			if depIdx, ok := stores[rec.Addr]; ok {
				consider(depIdx)
			}
		}
		if barrier > start {
			start = barrier
			parent = barIdx
		}

		rep.LatestStart = max(rep.LatestStart, start)
		finish := start + int64(isa.Latency(in.Op))
		nodes = append(nodes, nodeRef{finish: finish, parent: parent})
		classes = append(classes, in.Class())
		rep.Instructions++

		if w := in.Writes(); w >= 0 {
			regDef[w] = idx
		}
		if in.Op == isa.St {
			stores[rec.Addr] = idx
		}
		if opts.RealBranches && in.IsCondBranch() {
			taken := pred.Predict(rec.PC) // predicted direction
			pred.Update(rec.PC, rec.Taken)
			if taken != rec.Taken {
				rep.Mispredicts++
				if finish > barrier {
					barrier = finish
					barIdx = idx
				}
			}
		}
	}

	// Locate the longest chain's end and walk it backward.
	var endIdx int64 = -1
	for i := range nodes {
		if nodes[i].finish > rep.CriticalPath {
			rep.CriticalPath = nodes[i].finish
			endIdx = int64(i)
		}
	}
	for cur := endIdx; cur >= 0; cur = nodes[cur].parent {
		rep.CritInstructions++
		rep.CritClasses[classes[cur]]++
	}
	return rep
}
