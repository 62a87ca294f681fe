package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one cell or job
// share a Group. Weight is the share of the span this tree owns: a batch
// that carries n cells appears once under each of them with weight 1/n.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0 for a root
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Group  string  `json:"group,omitempty"`
	Start  int64   `json:"start_ns"` // since the recorder's epoch
	End    int64   `json:"end_ns"`
	Weight float64 `json:"weight"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// tracing off: every method is a no-op returning span ID 0.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span now and returns its ID.
func (r *Recorder) Begin(parent int, layer, name, group string) int {
	if r == nil {
		return 0
	}
	return r.add(Span{Parent: parent, Layer: layer, Name: name, Group: group,
		Start: int64(time.Since(r.epoch)), End: -1, Weight: 1})
}

// End closes a span opened by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// SetEnd sets the end of a span whose end was not known when recorded.
func (r *Recorder) SetEnd(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(end.Sub(r.epoch))
	r.mu.Unlock()
}

// Record adds a span timed elsewhere.
func (r *Recorder) Record(parent int, layer, name, group string, start, end time.Time, weight float64) int {
	if r == nil {
		return 0
	}
	return r.add(Span{Parent: parent, Layer: layer, Name: name, Group: group,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Weight: weight})
}

func (r *Recorder) add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Mark returns a position Truncate can roll the recorder back to.
func (r *Recorder) Mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Truncate drops every span recorded after mark. The traced run keeps the
// set-up's spans and those of its last traced repetition only.
func (r *Recorder) Truncate(mark int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:mark]
	r.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile dumps the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rootLayer names the benchmark's own spans; a root's self time is the
// part of the run no layer accounts for.
const rootLayer = "bench"

// selfTimes returns, per layer, the weighted sum of span self times in
// seconds: a span's duration minus the part of it its children cover.
// Children that overlap each other (two workers under one parent) count
// once. Children are clipped to their parent. A span still open counts as
// zero length.
func selfTimes(spans []Span) map[string]float64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self := float64(s.End-s.Start) - float64(covered(s, kids[s.ID]))
		out[s.Layer] += s.Weight * self / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}
