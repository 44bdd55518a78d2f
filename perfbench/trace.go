package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trajsim/internal/core"
	"trajsim/internal/segstore"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

// The traced run replays the untraced window's inputs in-process, on the
// same schedule, through each layer's public functions, and records a
// span around every call. Spans live in memory and are written to
// <out>/traces/<workload>.jsonl when the run ends.

type spanName uint8

const (
	spRequest spanName = iota
	spDecode
	spIngest
	spAppend
	spCommit
	spReplayRange
	spSegmentAt
)

var spanNames = [...]string{"request", "trajio.decode", "stream.ingest", "segstore.append",
	"segstore.commit", "segstore.replayrange", "segstore.segmentat"}

// span is one timed call. Spans of one replayed request share trace;
// parent is the id of the span that caused this one (0 for a root).
// Sink-writer spans are roots of their own traces: the batches a sweep
// merges come from many requests, and queue wait links them instead.
type span struct {
	trace, id, parent uint32
	name              spanName
	start, end        time.Duration
}

type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint32
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(trace, parent uint32, name spanName) span {
	if !t.on.Load() {
		return span{}
	}
	return span{trace: trace, id: t.ids.Add(1), parent: parent, name: name, start: now()}
}

func (t *tracer) end(s span) {
	if s.id == 0 {
		return
	}
	s.end = now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedSink wraps the store as the engine's sink, timing each deferred
// append and group commit and noting, per device, which segments each
// append carried and when it started (for queue wait).
type tracedSink struct {
	st *segstore.Store
	tr *tracer

	mu      sync.Mutex
	cum     map[string]int
	appends map[string][]appendRec
}

type appendRec struct {
	hi    int // device's cumulative segment count after this append
	start time.Duration
}

var (
	_ stream.DeferredSink = (*tracedSink)(nil)
	_ stream.StatsSink    = (*tracedSink)(nil)
)

func (s *tracedSink) Append(device string, segs []traj.Segment) error {
	return s.st.Append(device, segs)
}

func (s *tracedSink) AppendNoSync(device string, segs []traj.Segment) error {
	sp := s.tr.begin(0, 0, spAppend)
	err := s.st.AppendNoSync(device, segs)
	s.tr.end(sp)
	if sp.id != 0 {
		s.mu.Lock()
		s.cum[device] += len(segs)
		s.appends[device] = append(s.appends[device], appendRec{hi: s.cum[device], start: sp.start})
		s.mu.Unlock()
	}
	return err
}

func (s *tracedSink) CommitDevices(devices []string) error {
	sp := s.tr.begin(0, 0, spCommit)
	err := s.st.CommitDevices(devices)
	s.tr.end(sp)
	return err
}

func (s *tracedSink) Stats() segstore.Stats { return s.st.Stats() }

// tracePlan is what a workload hands the traced replay.
type tracePlan struct {
	store   segstore.Config // Dir is set per replay
	devs    []*device
	preload [2][][]byte // sent and flushed before the window
	scheds  [][]*op     // the window, one schedule per connection
	window  windowStats // the untraced run's counters around the window
	httpIng summary     // the untraced run's ingest latency (n = 0: none)
}

// env is an in-process engine over a store, configured like trajserve
// with the workload's flags.
type env struct {
	st   *segstore.Store
	eng  *stream.Engine
	sink *tracedSink
	tr   *tracer
}

func (b *bench) openEnv(p tracePlan, name string) (*env, error) {
	cfg := p.store
	cfg.Dir = filepath.Join(b.runDir, name)
	st, err := segstore.Open(cfg)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	sink := &tracedSink{st: st, tr: tr, cum: map[string]int{}, appends: map[string][]appendRec{}}
	eng, err := stream.NewEngine(stream.Config{Zeta: zeta, Aggressive: true, QueueWatermark: 0.9, Sink: sink})
	if err != nil {
		st.Close()
		return nil, err
	}
	e := &env{st: st, eng: eng, sink: sink, tr: tr}
	for _, bodies := range p.preload {
		for _, body := range bodies {
			var bt batch
			if err := bt.decode(body); err != nil {
				return nil, err
			}
			for _, dev := range bt.order {
				if _, err := eng.Ingest(dev, bt.pts[dev]); err != nil {
					return nil, fmt.Errorf("preload %s: %w", dev, err)
				}
			}
		}
	}
	eng.FlushAll()
	return e, nil
}

func (e *env) close() error {
	e.eng.Close()
	return e.st.Close()
}

// batch is a decoded ingest request, grouped by device the way trajserve
// groups it.
type batch struct {
	order []string
	pts   map[string][]traj.Point
}

func (bt *batch) decode(body []byte) error {
	if bt.pts == nil {
		bt.pts = map[string][]traj.Point{}
	}
	for _, d := range bt.order {
		bt.pts[d] = bt.pts[d][:0]
	}
	bt.order = bt.order[:0]
	return trajio.DecodeIngestStream(bytes.NewReader(body), func(dev string, pts []traj.Point) error {
		cur, seen := bt.pts[dev]
		if !seen || len(cur) == 0 {
			bt.order = append(bt.order, dev)
		}
		bt.pts[dev] = append(cur, pts...)
		return nil
	})
}

// replayStats is what one pass over the window measured.
type replayStats struct {
	busy       time.Duration // summed time inside the replayed calls
	ingests    []ingestRec
	queuedMax  int64
	handlesMax int64
	errs       int
}

// ingestRec notes one Engine.Ingest: the device's cumulative count of
// segments finalized so far, and when the call returned.
type ingestRec struct {
	dev string
	hi  int
	n   int
	at  time.Duration
}

// run replays scheds, one goroutine per connection. Paced, each op
// waits for its due time relative to the start; unpaced, ops run back
// to back (for the tracing-overhead comparison).
func (e *env) run(scheds [][]*op, paced bool) replayStats {
	var rs replayStats
	var mu sync.Mutex
	t0 := now()
	var wg sync.WaitGroup
	for si, ops := range scheds {
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, ops []*op) {
			defer wg.Done()
			var bt batch
			cum := map[string]int{}
			var local []ingestRec
			var errs int
			var qmax, hmax int64
			var busy time.Duration
			base := ops[0].due
			for i, o := range ops {
				if paced {
					sleepUntil(t0 + o.due - base)
				}
				opStart := now()
				trace := uint32(si<<24 | (i + 1))
				root := e.tr.begin(trace, 0, spRequest)
				switch o.kind {
				case opIngest:
					dsp := e.tr.begin(trace, root.id, spDecode)
					err := bt.decode(o.body)
					e.tr.end(dsp)
					if err != nil {
						errs++
						break
					}
					for _, dev := range bt.order {
						isp := e.tr.begin(trace, root.id, spIngest)
						segs, err := e.eng.Ingest(dev, bt.pts[dev])
						e.tr.end(isp)
						if err != nil {
							errs++
							continue
						}
						cum[dev] += len(segs)
						if isp.id != 0 {
							local = append(local, ingestRec{dev: dev, hi: cum[dev], n: len(segs), at: now()})
						}
					}
					if e.tr.on.Load() && i%16 == 0 {
						st := e.eng.Stats()
						qmax = max(qmax, st.SinkQueued)
						hmax = max(hmax, st.Store.OpenHandles)
					}
				case opRange:
					sp := e.tr.begin(trace, root.id, spReplayRange)
					_, err := e.st.ReplayRange(o.dev.id, o.from, o.to)
					e.tr.end(sp)
					if err != nil {
						errs++
					}
				case opAt:
					sp := e.tr.begin(trace, root.id, spSegmentAt)
					_, err := e.st.SegmentAt(o.dev.id, o.t)
					e.tr.end(sp)
					if err != nil && !errors.Is(err, segstore.ErrNoPosition) {
						errs++ // no position is an answer; the HTTP run checks it
					}
				}
				e.tr.end(root)
				busy += now() - opStart
			}
			mu.Lock()
			rs.ingests = append(rs.ingests, local...)
			rs.errs += errs
			rs.busy += busy
			rs.queuedMax = max(rs.queuedMax, qmax)
			rs.handlesMax = max(rs.handlesMax, hmax)
			mu.Unlock()
		}(si, ops)
	}
	wg.Wait()
	for e.eng.Stats().SinkQueued > 0 {
		time.Sleep(time.Millisecond)
	}
	return rs
}

// traced runs the replays and records every per-layer metric.
func (b *bench) traced(p tracePlan) error {
	e, err := b.openEnv(p, "replay")
	if err != nil {
		return err
	}
	e.tr.on.Store(true)
	rs := e.run(p.scheds, true)
	e.tr.on.Store(false)
	// A sink writer may still be finishing a call it began while tracing
	// was on; take copies under the locks it records under.
	e.tr.mu.Lock()
	spans := append([]span(nil), e.tr.spans...)
	e.tr.mu.Unlock()
	e.sink.mu.Lock()
	apps := make(map[string][]appendRec, len(e.sink.appends))
	for dev, a := range e.sink.appends {
		apps[dev] = a
	}
	e.sink.mu.Unlock()
	if rs.errs > 0 {
		b.violate("traced replay: %d layer calls failed", rs.errs)
	}

	// Tracing overhead: the first two seconds of the window, unpaced, with
	// spans off and on in turn, twice each, compared by the least time
	// spent inside the replayed calls. A read-only window reuses the store;
	// one that writes gets a fresh store per pass.
	prefix := make([][]*op, len(p.scheds))
	writes := false
	for i, ops := range p.scheds {
		for _, o := range ops {
			if o.due-ops[0].due < 2*time.Second {
				prefix[i] = append(prefix[i], o)
			}
			writes = writes || o.kind == opIngest
		}
	}
	var busy [2]time.Duration
	for k := 0; k < 4; k++ {
		pe := e
		if writes {
			if pe, err = b.openEnv(p, fmt.Sprintf("overhead%d", k)); err != nil {
				return err
			}
		}
		on := k % 2
		pe.tr.on.Store(on == 1)
		if d := pe.run(prefix, false).busy; busy[on] == 0 || d < busy[on] {
			busy[on] = d
		}
		if writes {
			if err := pe.close(); err != nil {
				return err
			}
		}
	}
	if err := e.close(); err != nil {
		return err
	}
	b.m["trace.overhead_frac"] = frac(float64(busy[1]-busy[0]), float64(busy[0]))

	b.putSpanMetrics(p, spans, rs, apps)
	b.putCounters(p)
	b.putCore(p, rs)
	b.summarizeSpans(spans)
	return b.writeSpans(spans)
}

func spanSamples(spans []span, name spanName) samples {
	var s samples
	for _, sp := range spans {
		if sp.name == name {
			s = append(s, int64(sp.end-sp.start))
		}
	}
	return s
}

func total(s samples) time.Duration {
	var t int64
	for _, v := range s {
		t += v
	}
	return time.Duration(t)
}

func windowPoints(scheds [][]*op) int {
	n := 0
	for _, ops := range scheds {
		for _, o := range ops {
			if o.kind == opIngest {
				n += o.pts
			}
		}
	}
	return n
}

func (b *bench) putUS(prefix string, s samples) {
	sum := summarize(s)
	b.m[prefix+"_us_p50"] = us(sum.p50)
	b.m[prefix+"_us_p99"] = us(sum.p99)
	b.note("%s: %v", prefix, sum)
}

// putSpanMetrics derives the timing metrics from the replay's spans.
func (b *bench) putSpanMetrics(p tracePlan, spans []span, rs replayStats, apps map[string][]appendRec) {
	pts := float64(windowPoints(p.scheds))
	decode := spanSamples(spans, spDecode)
	ingest := spanSamples(spans, spIngest)
	b.m["trajio.decode_ns_per_pt"] = frac(float64(total(decode)), pts)
	b.putUS("stream.ingest", ingest)
	b.m["stream.self_ns_per_pt"] = frac(float64(total(ingest)), pts) // the core share is subtracted in putCore
	b.putUS("segstore.append", spanSamples(spans, spAppend))
	b.putUS("segstore.commit", spanSamples(spans, spCommit))
	b.putUS("segstore.replayrange", spanSamples(spans, spReplayRange))
	b.putUS("segstore.segmentat", spanSamples(spans, spSegmentAt))
	b.m["stream.sink_queued_max"] = float64(rs.queuedMax)
	b.m["segstore.open_handles_max"] = float64(rs.handlesMax)

	// Queue wait: from Ingest's return to the start of the append that
	// carried that batch's last segment (0 when the writer got there
	// before the caller saw the return).
	var waits samples
	for _, in := range rs.ingests {
		if in.n == 0 {
			continue
		}
		a := apps[in.dev]
		k := sort.Search(len(a), func(k int) bool { return a[k].hi >= in.hi })
		if k == len(a) {
			continue // appended after the window (a flush tail)
		}
		waits = append(waits, int64(max(0, a[k].start-in.at)))
	}
	sum := summarize(waits)
	b.m["stream.queue_wait_ms_p50"] = ms(sum.p50)
	b.m["stream.queue_wait_ms_p99"] = ms(sum.p99)
	b.note("stream.queue_wait: %v", sum)

	// Untraced HTTP ingest median minus the traced decode and per-request
	// Engine.Ingest medians: what HTTP and the handler add.
	if p.httpIng.n > 0 {
		perReq := map[uint32]int64{}
		for _, sp := range spans {
			if sp.name == spIngest {
				perReq[sp.trace] += int64(sp.end - sp.start)
			}
		}
		var reqIngest samples
		for _, v := range perReq {
			reqIngest = append(reqIngest, v)
		}
		d := decode.sorted().quantile(0.5) + reqIngest.sorted().quantile(0.5)
		b.m["trajserve.overhead_us_p50"] = us(p.httpIng.p50 - time.Duration(d))
	} else {
		b.m["trajserve.overhead_us_p50"] = 0
	}
}

// putCounters derives the counter metrics from the untraced window's
// /stats deltas.
func (b *bench) putCounters(p tracePlan) {
	a, z := p.window.before, p.window.after
	sa, sz := a.Store, z.Store
	batches := 0
	queries := 0
	for _, ops := range p.scheds {
		for _, o := range ops {
			switch {
			case o.kind != opIngest:
				queries++
			case o.probe:
				batches++
			default:
				batches += batchDevs
			}
		}
	}
	sweepBatches := float64(z.SinkSweepBatches - a.SinkSweepBatches)
	b.m["stream.contended_frac"] = frac(float64(z.Contended-a.Contended), float64(batches))
	b.m["stream.batches_per_sweep"] = frac(sweepBatches, float64(z.SinkSweeps-a.SinkSweeps))
	b.m["stream.sink_blocked"] = float64(z.SinkBlocked - a.SinkBlocked)
	b.m["segstore.fsyncs_per_batch"] = frac(float64(sz.Syncs-sa.Syncs), sweepBatches)
	hits, misses := float64(sz.HandleHits-sa.HandleHits), float64(sz.HandleMisses-sa.HandleMisses)
	b.m["segstore.handle_miss_frac"] = frac(misses, hits+misses)
	b.m["segstore.bytes_per_segment"] = frac(float64(sz.Bytes-sa.Bytes), float64(sz.Segments-sa.Segments))
	ch, cm := float64(sz.ReadCacheHits-sa.ReadCacheHits), float64(sz.ReadCacheMiss-sa.ReadCacheMiss)
	b.m["segstore.cache_hit_frac"] = frac(ch, ch+cm)
	b.m["segstore.read_bytes_per_query"] = frac(float64(sz.ReadBytes-sa.ReadBytes), float64(queries))
	b.m["segstore.index_rebuilds"] = float64(sz.IndexRebuilds - sa.IndexRebuilds)
}

// putCore runs a standalone OPERB-A encoder over every session the
// workload sent, when the window ingests: its per-point cost, its
// compression (which must equal what the store holds) and its patching
// share. The engine's time beyond the encoder is stream's own.
func (b *bench) putCore(p tracePlan, rs replayStats) {
	if windowPoints(p.scheds) == 0 {
		for _, k := range []string{"core.push_ns_per_pt", "core.pts_per_segment", "core.patch_frac", "stream.self_ns_per_pt"} {
			b.m[k] = 0
		}
		return
	}
	var points, segs int
	var patch core.PatchStats
	var took time.Duration
	for _, d := range p.devs {
		for _, sp := range d.sessions {
			pts := make([]traj.Point, sp.hi-sp.lo)
			for i := range pts {
				pts[i] = d.point(sp.lo + i)
			}
			enc, err := core.NewAggressiveEncoder(zeta, core.DefaultOptions())
			if err != nil {
				b.violate("core: %v", err)
				return
			}
			t0 := now()
			for _, pt := range pts {
				segs += len(enc.Push(pt))
			}
			segs += len(enc.Flush())
			took += now() - t0
			points += len(pts)
			ps := enc.PatchStats()
			patch.Anomalous += ps.Anomalous
			patch.Patched += ps.Patched
		}
	}
	push := frac(float64(took), float64(points))
	b.m["core.push_ns_per_pt"] = push
	b.m["core.pts_per_segment"] = frac(float64(points), float64(segs))
	b.m["core.patch_frac"] = patch.Ratio()
	b.m["stream.self_ns_per_pt"] -= push
	if got, want := b.m["core.pts_per_segment"], b.m["compression_ratio"]; got != want {
		b.violate("standalone encoder gives %.6f pts/seg, the store holds %.6f", got, want)
	}
}

// summarizeSpans reports each layer's call count, total and self time:
// a span's duration minus the part of it its child spans cover.
func (b *bench) summarizeSpans(spans []span) {
	byID := make(map[uint32]int, len(spans))
	for i, sp := range spans {
		byID[sp.id] = i
	}
	children := map[uint32][][2]time.Duration{}
	for _, sp := range spans {
		if sp.parent != 0 {
			children[sp.parent] = append(children[sp.parent], [2]time.Duration{sp.start, sp.end})
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	var per [len(spanNames)]agg
	for _, sp := range spans {
		d := sp.end - sp.start
		a := &per[sp.name]
		a.n++
		a.total += d
		a.self += d - covered(children[sp.id], sp.start, sp.end)
	}
	for i, a := range per {
		if a.n > 0 {
			b.note("span %-22s calls=%-7d total=%-12v self=%v", spanNames[i], a.n, a.total, a.self)
		}
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeSpans writes the spans as JSON lines, replacing the previous
// trace of the same workload.
func (b *bench) writeSpans(spans []span) error {
	dir := filepath.Join(b.cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.cfg.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(map[string]any{"trace": sp.trace, "id": sp.id, "parent": sp.parent,
			"name": spanNames[sp.name], "start_ns": int64(sp.start), "end_ns": int64(sp.end)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	b.note("spans: %d written to %s", len(spans), path)
	return f.Close()
}
