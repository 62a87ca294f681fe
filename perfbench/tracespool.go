package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// spoolMultiple is trace-spool's scale, as a multiple of each workload's
// default: about 15M records per repetition, about seven repetitions in
// 28 s.
const spoolMultiple = 2

// spoolTailPct is trace-spool's job_p99_ms percentile: three or more
// repetitions of 18 operations leave at least fourteen beyond p75.
const spoolTailPct = 75

func spoolScale(w *workloads.Workload) int { return spoolMultiple * w.DefaultScale }

// traceRef is what a workload's trace must look like: record count, FNV
// content hash, and a cheap fold the replay consumer recomputes.
type traceRef struct {
	Records int64
	Hash    uint64
	Fold    uint64
}

// foldRecord mixes one record into a running fold; the replay consumer
// uses it to prove it saw every record without paying for a full hash.
func foldRecord(f uint64, rec *trace.Record) uint64 {
	x := uint64(rec.PC) | uint64(rec.Addr)<<32
	x ^= uint64(uint32(rec.Value)) * 0x9e3779b97f4a7c15
	if rec.Taken {
		x ^= 1 << 63
	}
	return (f ^ x) * 0x100000001b3
}

// referencePass streams one workload's trace straight from the VM into a
// hasher, in memory, and returns its reference.
func referencePass(w *workloads.Workload) (traceRef, error) {
	ts, err := w.Stream(context.Background(), spoolScale(w))
	if err != nil {
		return traceRef{}, err
	}
	defer trace.CloseSource(ts)
	hs := trace.NewHasher()
	var fold uint64
	var rec trace.Record
	for ts.Next(&rec) {
		hs.WriteRecord(&rec)
		fold = foldRecord(fold, &rec)
	}
	if err := ts.Err(); err != nil {
		return traceRef{}, fmt.Errorf("generating %s: %w", w.Name, err)
	}
	return traceRef{hs.Records(), hs.Sum64(), fold}, nil
}

// timedSource wraps the VM stream handed to trace.SpoolFrom and estimates
// the time the spool writer spends inside the stream's Next — waiting for
// the VM — by timing a random ~1/32 of the calls, which costs far less
// than timing them all and cannot alias with the pipe's batching.
type timedSource struct {
	src     trace.Source
	n, next int64
	rng     uint64
	sampled time.Duration
	samples int64
}

func (s *timedSource) Next(rec *trace.Record) bool {
	s.n++
	if s.n < s.next {
		return s.src.Next(rec)
	}
	t := time.Now()
	ok := s.src.Next(rec)
	s.sampled += time.Since(t)
	s.samples++
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	s.next = s.n + 1 + int64(s.rng>>58) // gap 1..64
	return ok
}

func (s *timedSource) Err() error { return trace.SourceErr(s.src) }

// waited is the estimated total time spent inside Next.
func (s *timedSource) waited() time.Duration {
	if s.samples == 0 {
		return 0
	}
	return time.Duration(float64(s.sampled) * float64(s.n) / float64(s.samples))
}

// spoolTotals is what one traced repetition spent in the trace layer.
type spoolTotals struct {
	write, wait, validate, read float64 // seconds
	bytes, replayed             int64
}

// spoolOne runs one workload through generate → spool → validate →
// replay and checks every stage against ref. It returns the three stage
// latencies in ms.
func spoolOne(cfg *runConfig, tr *Recorder, parent int, w *workloads.Workload, ref traceRef, tot *spoolTotals) ([3]float64, error) {
	var ms [3]float64
	path := filepath.Join(cfg.Work, w.Name+".trace")
	defer os.Remove(path)
	ts, err := w.Stream(context.Background(), spoolScale(w))
	if err != nil {
		return ms, err
	}
	defer trace.CloseSource(ts)
	var src trace.Source = ts
	var timed *timedSource
	if tr != nil {
		timed = &timedSource{src: ts, next: 1, rng: uint64(len(w.Name))}
		src = timed
	}
	t0 := time.Now()
	sp, err := trace.SpoolFrom(path, src)
	t1 := time.Now()
	if err != nil {
		return ms, fmt.Errorf("spooling %s: %w", w.Name, err)
	}
	if h, n, _ := sp.ContentHash(); h != ref.Hash || n != ref.Records {
		return ms, fmt.Errorf("%s spool: %d records hash %016x, in-memory trace has %d records hash %016x", w.Name, n, h, ref.Records, ref.Hash)
	}
	reopened, err := trace.OpenSpool(path)
	t2 := time.Now()
	if err != nil {
		return ms, fmt.Errorf("validating %s spool: %w", w.Name, err)
	}
	if h, n, _ := reopened.ContentHash(); h != ref.Hash || n != ref.Records {
		return ms, fmt.Errorf("%s spool re-opened: %d records hash %016x, want %d records hash %016x", w.Name, n, h, ref.Records, ref.Hash)
	}
	rd, err := reopened.Open()
	if err != nil {
		return ms, err
	}
	var rec trace.Record
	var n int64
	var fold uint64
	for rd.Next(&rec) {
		n++
		fold = foldRecord(fold, &rec)
	}
	rerr := rd.Err()
	trace.CloseSource(rd)
	t3 := time.Now()
	if rerr != nil {
		return ms, fmt.Errorf("replaying %s spool: %w", w.Name, rerr)
	}
	if n != ref.Records || fold != ref.Fold {
		return ms, fmt.Errorf("%s replay read %d records fold %016x, want %d fold %016x", w.Name, n, fold, ref.Records, ref.Fold)
	}
	if tr != nil {
		wait := timed.waited()
		s := tr.Record(parent, "trace", "trace.SpoolFrom", w.Name, t0, t1, 1)
		tr.Record(s, "vm", "VM stream Next", w.Name, t1.Add(-wait), t1, 1)
		tr.Record(parent, "trace", "trace.OpenSpool", w.Name, t1, t2, 1)
		tr.Record(parent, "trace", "spool replay", w.Name, t2, t3, 1)
		fi, err := os.Stat(path)
		if err != nil {
			return ms, err
		}
		tot.write += t1.Sub(t0).Seconds() - wait.Seconds()
		tot.wait += wait.Seconds()
		tot.validate += t2.Sub(t1).Seconds()
		tot.read += t3.Sub(t2).Seconds()
		tot.bytes += fi.Size()
		tot.replayed += n
	}
	ms[0], ms[1], ms[2] = t1.Sub(t0).Seconds()*1e3, t2.Sub(t1).Seconds()*1e3, t3.Sub(t2).Seconds()*1e3
	return ms, nil
}

// traceSpool: each workload at twice its default scale, generated cold
// into a spool, re-opened through OpenSpool's validation, and replayed.
// No scheduler runs. See README.md.
func traceSpool(cfg *runConfig) (*result, error) {
	res := newResult()
	refs := map[string]traceRef{}
	var last buildStats
	// Three set-ups, not five: each is a full VM pass over 15M records.
	d, err := medianSetup(3, func(final bool) error {
		var tr *Recorder
		if final {
			tr = cfg.tr
		}
		root := tr.Begin(0, rootLayer, "setup", "")
		defer tr.End(root)
		last = buildStats{}
		if err := buildPrograms(tr, root, spoolScale, &last); err != nil {
			return err
		}
		for _, w := range workloads.All() {
			t0 := time.Now()
			ref, err := referencePass(w)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if prev, ok := refs[w.Name]; ok && prev != ref {
				return fmt.Errorf("%s: two generations of the same trace differ", w.Name)
			}
			refs[w.Name] = ref
			tr.Record(root, "vm", "VM stream → trace.Hasher", w.Name, t0, t1, 1)
			last.VMBusy += t1.Sub(t0).Seconds()
			last.Records += ref.Records
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.E2E["setup_s"] = d
	last.report(res, "the in-memory reference pass")

	// The seed orders the workloads; the traces themselves are the
	// paper's fixed programs.
	order := append([]*workloads.Workload(nil), workloads.All()...)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	mark := cfg.tr.Mark()
	var lat []float64
	var tot spoolTotals
	reps, err := repeat(cfg.Seconds, cfg.Traced, func(rep int, on bool) (repStats, error) {
		var tr *Recorder
		if on {
			tr = cfg.tr
			tr.Truncate(mark)
			tot = spoolTotals{}
		}
		root := tr.Begin(0, rootLayer, fmt.Sprintf("trace-spool rep %d", rep), "")
		defer tr.End(root)
		st := repStats{}
		var ms []float64
		for _, w := range order {
			m, err := spoolOne(cfg, tr, root, w, refs[w.Name], &tot)
			st.Ops += 3
			if err != nil {
				return st, err
			}
			ms = append(ms, m[:]...)
			st.Instructions += refs[w.Name].Records
		}
		if !on {
			lat = append(lat, ms...)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range reps {
		res.Attempted += r.Ops
	}
	repMetrics(reps, res.E2E, res)
	opMetrics(res, "spool/validate/replay", lat, spoolTailPct)
	res.note("sim_minstr_per_s", "counts VM-executed instructions, one trace record each")
	if cfg.Traced {
		tracingOverhead(reps, res)
		res.layer("trace.spool_write_s", tot.write)
		res.layer("trace.spool_validate_s", tot.validate)
		res.layer("trace.spool_read_s", tot.read)
		res.layer("trace.spool_bytes", float64(tot.bytes))
		rr := ratio{float64(tot.replayed) / 1e6, tot.read, "MRec replayed / s replaying"}
		res.layer("trace.read_mrec_per_s", rr.Value())
		res.note("trace.read_mrec_per_s", rr.String())
		res.note("VM stream wait inside trace.SpoolFrom", fmt.Sprintf("%.4g s (sampled, about 1 call in 32)", tot.wait))
	}
	return res, nil
}
