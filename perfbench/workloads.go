package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"trajsim/internal/segstore"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

// Workload shapes. Rates are offered loads of the open-loop generator;
// see README.md for why each workload exists.
const (
	fleetDevs  = 128
	ingestRate = 750 // fleet requests/s on ingest, 8 × 64 points each: ~40% of a 2-vCPU VM's capacity
	probeRate  = 500 // probe-device requests/s on ingest

	historyDevs   = 256
	historyRate   = 2000 // queries/s over two connections
	historyRange  = 0.7  // share of /segments windows; the rest are /at
	historyWindow = 200  // points per /segments window
	zipfS         = 1.1
	// historyRetention bounds each device's log so it rotates into a few
	// sealed 4 KiB files with index sidecars while nothing is ever
	// deleted (a 16k-point GeoLife track stores about 8-9 KiB).
	historyRetention = 16 << 10
	// historyCache makes the decoded working set about four times the
	// read cache (256 devices × ~650 segments × 72 B ≈ 12 MB).
	historyCache = 3 << 20

	livePreload   = basePoints // points per device loaded and flushed before the window
	liveIngest    = 1000       // fleet requests/s on connection 1
	liveQueries   = 1000       // queries/s on connection 2
	liveTailSpanM = 5 * 60 * 1000

	preloadBatch = 512 // points per device batch while preloading

	// Secondary phases run after the measured window and supply the
	// metrics whose traffic the window does not carry.
	phaseLen       = 3 * time.Second
	phaseProbeRate = 1200 // probe requests/s: over 3000 persist-lag samples
	phaseQueryRate = 2000 // queries/s: 3000 each of /segments and /at

	latencyLimit = 25 * time.Millisecond // the ingest ladder's p99 limit
	setupRuns    = 3                     // set-ups per untraced run; setup_s is their median
)

func baseFlags(extra ...string) []string {
	return append([]string{"-zeta", strconv.FormatFloat(zeta, 'f', -1, 64), "-aggressive=true", "-idle", "0"}, extra...)
}

// setup starts fresh servers one after another, each in its own data
// directory and each prepared (preloaded) the same way, and keeps the
// last. setup_s is the median time from exec to ready-and-prepared;
// deleting the earlier servers' data is not timed.
func (b *bench) setup(prepare func() error) error {
	n := setupRuns
	if b.cfg.trace {
		n = 1
	}
	var times []float64
	for k := 0; k < n; k++ {
		if b.srv != nil {
			b.c1.close()
			b.c2.close()
			if err := b.srv.stop(); err != nil {
				return err
			}
			removeBounded(b.srv.dir, 20*time.Second)
			b.srv = nil
		}
		t0 := now()
		srv, err := startServer(b.cfg.bin, filepath.Join(b.runDir, fmt.Sprintf("srv%d", k)), b.flags)
		if err != nil {
			return err
		}
		b.srv, b.c1, b.c2 = srv, newConn(srv.base), newConn(srv.base)
		if prepare != nil {
			if err := prepare(); err != nil {
				return err
			}
		}
		times = append(times, (now() - t0).Seconds())
	}
	b.m["setup_s"] = median(times)
	b.note("setup_s: median of %d set-ups %v", n, times)
	return nil
}

// windowStats are the server's counters and CPU time around a measured
// window.
type windowStats struct {
	before, after stream.Stats
	cpu           time.Duration
}

// window runs one open-loop schedule per connection, starting together,
// and returns the counters around it (taken after the sink queue
// drained, so they include the window's persistence work).
func (b *bench) window(scheds ...[]*op) (windowStats, error) {
	var ws windowStats
	var err error
	if ws.before, err = b.srv.stats(b.c1); err != nil {
		return ws, err
	}
	cpu0, err := b.srv.cpuTime()
	if err != nil {
		return ws, err
	}
	t0 := now() + 20*time.Millisecond
	for _, s := range scheds {
		shift(s, t0)
	}
	tot0, st0 := cpuSteal()
	runConns([]*conn{b.c1, b.c2}, scheds, runOpen)
	tot1, st1 := cpuSteal()
	b.note("window: %.1f%% of host CPU time stolen by other guests", 100*frac(float64(st1-st0), float64(tot1-tot0)))
	if err := b.srv.waitDrained(b.c1); err != nil {
		return ws, err
	}
	cpu1, err := b.srv.cpuTime()
	if err != nil {
		return ws, err
	}
	ws.cpu = cpu1 - cpu0
	ws.after, err = b.srv.stats(b.c1)
	return ws, err
}

// ingestReply is the JSON summary /ingest returns.
type ingestReply struct {
	Segments int               `json:"segments"`
	Failed   map[string]string `json:"failed"`
}

func parseIngest(o *op) ingestReply {
	var r ingestReply
	if o.kind == opIngest && !o.failed() {
		json.Unmarshal(o.resp, &r)
	}
	return r
}

// ingestFailures counts device entries in an ingest reply's failed map.
func ingestFailures(o *op) int { return len(parseIngest(o).Failed) }

// timing is one observation: when it was due and how long it took.
type timing struct{ due, d time.Duration }

func durations(ts []timing) samples {
	s := make(samples, len(ts))
	for i, t := range ts {
		s[i] = int64(t.d)
	}
	return s
}

// latencies returns the latencies of the completed ops of one kind
// (an /at 404 is a completed answer; checkQueries judges it).
func latencies(ops []*op, kind opKind) []timing {
	var s []timing
	for _, o := range ops {
		if o.kind == kind && (!o.failed() || o.kind == opAt && o.err == nil && o.status == http.StatusNotFound) {
			s = append(s, timing{o.due, o.latency()})
		}
	}
	return s
}

// sliceSize is the sample count per stretch of due time a timing
// population is cut into. Each timing metric is the median over the
// stretches of that stretch's quantile, so a burst of interference from
// outside the benchmark (a neighbour's disk flush, a stolen CPU) moves a
// few of the values it is the median of, not the result. A stretch of
// 1000 keeps ten samples beyond each p99.
const sliceSize = 1000

// putTiming records a population's p50 under p50 and its p99 under
// trajserve.<prefix>_p99_ms, in milliseconds.
func (b *bench) putTiming(p50, prefix string, ts []timing) {
	p99 := "trajserve." + prefix + "_p99_ms"
	if len(ts) == 0 {
		b.m[p50], b.m[p99] = 0, 0
		return
	}
	lo, hi := ts[0].due, ts[0].due
	for _, t := range ts {
		lo, hi = min(lo, t.due), max(hi, t.due)
	}
	n := max(1, len(ts)/sliceSize)
	parts := make([]samples, n)
	for _, t := range ts {
		k := min(n-1, int(int64(n)*int64(t.due-lo)/int64(hi-lo+1)))
		parts[k] = append(parts[k], int64(t.d))
	}
	var p50s, p99s []float64
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		sum := summarize(p)
		p50s, p99s = append(p50s, ms(sum.p50)), append(p99s, ms(sum.p99))
	}
	b.m[p50] = median(p50s)
	b.m[p99] = median(p99s)
	b.note("%s: %v pooled; per-slice p50 %.3g, p99 %.3g ms", prefix, summarize(durations(ts)), p50s, p99s)
}

func (b *bench) putLate(scheds ...[]*op) {
	var s samples
	for _, ops := range scheds {
		for _, o := range ops {
			s = append(s, int64(o.late))
		}
	}
	b.m["loadgen.late_ms_p99"] = ms(time.Duration(s.sorted().quantile(0.99)))
}

// putServerCost records the server CPU spent per completed request in
// the window.
func (b *bench) putServerCost(ws windowStats, scheds ...[]*op) {
	n := 0
	for _, ops := range scheds {
		n += len(ops)
	}
	b.m["server_cpu_us_per_req"] = us(ws.cpu) / float64(n)
}

func (b *bench) putPeakRSS() error {
	rss, err := b.srv.peakRSS()
	b.m["peak_rss_mb"] = float64(rss) / (1 << 20)
	return err
}

// persistLags matches each probe request that finalized segments to the
// tail event announcing them, by the device's cumulative segment count:
// the /ingest reply's segments against the records in each event. The
// lag runs from the request's due time to the event's arrival.
func (b *bench) persistLags(probeOps []*op, events []tailEvent) []timing {
	var lags []timing
	want, have, k := 0, 0, 0
	missing := 0
	for _, o := range probeOps {
		n := parseIngest(o).Segments
		if n == 0 {
			continue
		}
		want += n
		for have < want && k < len(events) {
			have += events[k].recs
			k++
		}
		if have < want {
			missing++
			continue
		}
		lags = append(lags, timing{o.due, events[k-1].at - o.due})
	}
	if missing > 0 {
		b.violate("%d acknowledged probe batches were never announced on the tail", missing)
	}
	return lags
}

// closeTailAfter waits (up to two seconds) until the tail has announced
// every segment the probe requests reported, then closes it.
func closeTailAfter(tl *tail, probeOps []*op) ([]tailEvent, error) {
	want := 0
	for _, o := range probeOps {
		want += parseIngest(o).Segments
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		tl.mu.Lock()
		have := 0
		for _, e := range tl.events {
			have += e.recs
		}
		tl.mu.Unlock()
		if have >= want {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return tl.close()
}

// openTailReady subscribes and gives the server a moment to register
// the subscriber: the handler sends its headers before it subscribes.
func openTailReady(c *conn, device string) (*tail, error) {
	tl, err := openTail(c, device)
	if err == nil {
		time.Sleep(50 * time.Millisecond)
	}
	return tl, err
}

func probeRequest(d *device) []byte {
	return trajio.AppendIngestBatch(trajio.AppendIngestHeader(nil), d.id, d.take(batchPts))
}

// probePhase measures ack-to-announce lag on workloads whose window
// carries no probe (traced runs only): the probe device ingests on
// connection 1 while connection 2 holds its tail.
func (b *bench) probePhase(probe *device) error {
	tl, err := openTailReady(b.c2, probe.id)
	if err != nil {
		return err
	}
	n := int(phaseProbeRate * phaseLen.Seconds())
	ops := make([]*op, n)
	for j := range ops {
		ops[j] = &op{kind: opIngest, probe: true, pts: batchPts, body: probeRequest(probe),
			due: time.Duration(j) * time.Second / phaseProbeRate}
	}
	shift(ops, now()+5*time.Millisecond)
	runOpen(b.c1, ops)
	events, err := closeTailAfter(tl, ops)
	if err != nil {
		return err
	}
	b.count(ops)
	b.putTiming("trajserve.persist_lag_p50_ms", "persist_lag", b.persistLags(ops, events))
	return nil
}

// flushAndCheck flushes every session, replays every device's log and
// checks it against what was sent; it records the quality metrics.
func (b *bench) flushAndCheck(devs []*device) (map[string][]traj.Segment, stream.Stats, error) {
	var st stream.Stats
	if err := b.flush(devs); err != nil {
		return nil, st, err
	}
	st, err := b.srv.stats(b.c1)
	if err != nil {
		return nil, st, err
	}
	replay, err := b.replayAll(devs)
	if err != nil {
		return nil, st, err
	}
	q := b.checkReplay(devs, replay)
	if int64(q.segments) != st.Store.Segments || int64(q.segments) != st.Segments {
		b.violate("replayed %d segments; /stats says %d emitted, %d persisted", q.segments, st.Segments, st.Store.Segments)
	}
	if st.SinkErrors+st.SinkDropped+st.Store.PoisonedLogs > 0 {
		b.violate("storage faults: %d sink errors, %d dropped batches, %d poisoned logs", st.SinkErrors, st.SinkDropped, st.Store.PoisonedLogs)
	}
	b.m["compression_ratio"] = frac(float64(q.points), float64(q.segments))
	b.m["avg_err_m"] = frac(q.errSum, float64(q.points))
	b.m["stored_bytes_per_pt"] = frac(float64(st.Store.Bytes), float64(q.points))
	b.note("quality: %d points, %d segments, %d store bytes", q.points, q.segments, st.Store.Bytes)
	return replay, st, nil
}

// flush finalizes every live session once the sink queue is empty, so
// each session's tail becomes a record of its own, and marks the
// devices' stream ranges as closed sessions.
func (b *bench) flush(devs []*device) error {
	if err := b.srv.waitDrained(b.c1); err != nil {
		return err
	}
	_, code, err := b.c1.post("/flush", nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("/flush: HTTP %d", code)
	}
	for _, d := range devs {
		d.closeSession()
	}
	return nil
}

// preloadPlan splits devs over the two connections (so each device's
// batches stay in order) and builds requests of batchDevs device batches
// of preloadBatch points until every device has sent pts points.
func preloadPlan(devs []*device, pts int) [2][][]byte {
	var plan [2][][]byte
	half := len(devs) / 2
	for c := 0; c < 2; c++ {
		part := devs[c*half : (c+1)*half]
		for r := 0; r < pts/preloadBatch; r++ {
			for g := 0; g < len(part); g += batchDevs {
				body := trajio.AppendIngestHeader(nil)
				for _, d := range part[g : g+batchDevs] {
					body = trajio.AppendIngestBatch(body, d.id, d.take(preloadBatch))
				}
				plan[c] = append(plan[c], body)
			}
		}
	}
	return plan
}

// preloader returns a set-up step that sends plan closed-loop over both
// connections and flushes, recording every request and each preload's
// throughput.
func (b *bench) preloader(plan [2][][]byte, all *[]*op, rates *[]float64) func() error {
	return func() error {
		var scheds [2][]*op
		pts := 0
		for c := range plan {
			for _, body := range plan[c] {
				scheds[c] = append(scheds[c], &op{kind: opIngest, body: body, pts: batchDevs * preloadBatch})
				pts += batchDevs * preloadBatch
			}
		}
		t0 := now()
		runConns([]*conn{b.c1, b.c2}, scheds[:], runClosed)
		took := now() - t0
		for _, s := range scheds {
			*all = append(*all, s...)
		}
		*rates = append(*rates, float64(pts)/took.Seconds())
		if err := b.srv.waitDrained(b.c1); err != nil {
			return err
		}
		_, code, err := b.c1.post("/flush", nil, "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("/flush: HTTP %d", code)
		}
		return err
	}
}

// putPreload records the preload's throughput and, when the window sends
// no points, its ingest latency.
func (b *bench) putPreload(ops []*op, rates []float64, timing bool) {
	b.count(ops)
	if timing {
		b.putTiming("ingest_p50_ms", "ingest", latencies(ops, opIngest))
	}
	// The best of the set-ups: outside interference only ever slows a
	// closed loop down.
	best := 0.0
	for _, r := range rates {
		best = max(best, r)
	}
	b.m["trajserve.ingest_max_pts_s"] = best
	b.note("trajserve.ingest_max_pts_s: best closed-loop preload rate of %.4g", rates)
}

func rangeOp(d *device, n0, n1 int) *op {
	from, to := d.point(n0).T, d.point(n1).T
	return &op{kind: opRange, dev: d, from: from, to: to, n0: n0, n1: n1,
		path: fmt.Sprintf("/devices/%s/segments?from=%d&to=%d", d.id, from, to)}
}

// atOp queries the position at the time of d's stream point n.
func atOp(d *device, n int) *op {
	t := d.point(n).T
	return &op{kind: opAt, dev: d, t: t, n0: n, path: fmt.Sprintf("/devices/%s/at?t=%d", d.id, t)}
}

// --- ingest ---------------------------------------------------------------

func runIngest(b *bench) error {
	b.flags = baseFlags("-fsync", "always", "-max-open-files", "64")
	fleet := makeDevices(b.cfg.seed, "d", fleetDevs)
	probe := makeDevices(b.cfg.seed, "probe", 1)[0]
	devs := append(append([]*device(nil), fleet...), probe)

	n, np := ingestRate*b.cfg.seconds, probeRate*b.cfg.seconds
	ops := make([]*op, 0, n+np)
	for i := 0; i < n; i++ {
		ops = append(ops, &op{kind: opIngest, pts: batchDevs * batchPts, body: fleetRequest(fleet, i*batchDevs, batchPts),
			due: time.Duration(i) * time.Second / ingestRate})
	}
	var probeOps []*op
	for j := 0; j < np; j++ {
		o := &op{kind: opIngest, probe: true, pts: batchPts, body: probeRequest(probe),
			due: time.Duration(j)*time.Second/probeRate + time.Second/(2*ingestRate)}
		probeOps = append(probeOps, o)
		ops = append(ops, o)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })

	if err := b.setup(nil); err != nil {
		return err
	}
	tl, err := openTailReady(b.c2, probe.id)
	if err != nil {
		return err
	}
	ws, err := b.window(ops)
	if err != nil {
		return err
	}
	events, err := closeTailAfter(tl, probeOps)
	if err != nil {
		return err
	}
	b.count(ops)
	b.putTiming("ingest_p50_ms", "ingest", latencies(ops, opIngest))
	b.putTiming("trajserve.persist_lag_p50_ms", "persist_lag", b.persistLags(probeOps, events))
	b.putServerCost(ws, ops)
	b.putLate(ops)
	replay, _, err := b.flushAndCheck(devs)
	if err != nil {
		return err
	}
	if b.cfg.trace {
		if err := b.ladder(fleet); err != nil {
			return err
		}
		return b.traced(tracePlan{
			store:   segstore.Config{Sync: segstore.SyncAlways, MaxOpenFiles: 64, ReadCacheBytes: segstore.DefaultReadCacheBytes},
			devs:    devs,
			scheds:  [][]*op{ops},
			window:  ws,
			httpIng: summarize(durations(latencies(ops, opIngest))),
		})
	}
	if err := b.queryPhase(fleet, replay); err != nil {
		return err
	}
	return b.putPeakRSS()
}

// queryPhase measures /segments and /at on the ingest workload's store,
// static after the final flush: connection 1, alternating window and
// position queries over uniformly chosen devices.
func (b *bench) queryPhase(devs []*device, replay map[string][]traj.Segment) error {
	r := newRand(b.cfg.seed, "query-phase")
	n := int(phaseQueryRate * phaseLen.Seconds())
	ops := make([]*op, n)
	for i := range ops {
		d := devs[r.IntN(len(devs))]
		sp := d.sessions[0]
		if i%2 == 0 {
			n0 := sp.lo + r.IntN(sp.hi-sp.lo-historyWindow)
			ops[i] = rangeOp(d, n0, n0+historyWindow-1)
		} else {
			ops[i] = atOp(d, sp.lo+r.IntN(sp.hi-sp.lo))
		}
		ops[i].due = time.Duration(i) * time.Second / phaseQueryRate
	}
	shift(ops, now()+5*time.Millisecond)
	runOpen(b.c1, ops)
	b.count(ops)
	b.putTiming("range_p50_ms", "range", latencies(ops, opRange))
	b.putTiming("at_p50_ms", "at", latencies(ops, opAt))
	b.checkQueries(ops, replay, true)
	return nil
}

// ladderRate is rung k of the fixed ladder of offered fleet request
// rates, 5% apart.
func ladderRate(k int) float64 { return 250 * math.Pow(1.05, float64(k)) }

// ladder finds the highest rung at which the fleet stream keeps ingest
// p99 within latencyLimit and the backlog from growing, by galloping up
// from the window's rate and bisecting. trajserve.ingest_max_pts_s is the
// rate achieved at that rung.
func (b *bench) ladder(fleet []*device) error {
	step := time.Second
	if b.cfg.seconds < 5 {
		step = 200 * time.Millisecond
	}
	results := map[int]float64{} // rung → achieved pts/s, or -1 when it failed
	// run offers rung k for one step and reports whether it met the limit
	// and the point rate achieved.
	run := func(k int) (bool, float64, error) {
		rate := ladderRate(k)
		n := int(rate * step.Seconds())
		ops := make([]*op, n)
		for i := range ops {
			ops[i] = &op{kind: opIngest, pts: batchDevs * batchPts, body: fleetRequest(fleet, i*batchDevs, batchPts),
				due: time.Duration(float64(i) / rate * 1e9)}
		}
		if err := b.srv.waitDrained(b.c1); err != nil {
			return false, 0, err
		}
		shift(ops, now()+5*time.Millisecond)
		runOpen(b.c1, ops)
		b.count(ops)
		sum := summarize(durations(latencies(ops, opIngest)))
		// The backlog grew if requests near the end started later than the
		// limit allows: the generator was still catching up.
		var tailDelay time.Duration
		for _, o := range ops[n-n/10:] {
			tailDelay = max(tailDelay, o.start-o.due)
		}
		ok := sum.p99 <= latencyLimit && tailDelay <= latencyLimit
		achieved := float64(n*batchDevs*batchPts) / (ops[n-1].done - ops[0].due).Seconds()
		b.note("ladder %.0f req/s: %v, end delay %v, %.0f pts/s, pass=%v", rate, sum, tailDelay, achieved, ok)
		return ok, achieved, nil
	}
	// try judges rung k once, offering it a second time before calling it
	// failed: one stall outside the program must not end the climb.
	try := func(k int) (bool, error) {
		if v, ok := results[k]; ok {
			return v > 0, nil
		}
		results[k] = -1
		for i := 0; i < 2; i++ {
			ok, achieved, err := run(k)
			if err != nil || ok {
				if ok {
					results[k] = achieved
				}
				return ok, err
			}
		}
		return false, nil
	}
	lo, hi := -1, -1 // highest passing and lowest failing rung seen
	// Start at twice the window's rate: the window runs at about half
	// capacity, so the search usually brackets the knee within a few rungs.
	k := int(math.Round(math.Log(2*ingestRate/250.0) / math.Log(1.05)))
	for gap := 1; ; gap *= 2 {
		ok, err := try(k)
		if err != nil {
			return err
		}
		if ok {
			lo = k
			if hi >= 0 {
				break
			}
			k += gap
		} else {
			hi = k
			if lo >= 0 || k == 0 {
				break
			}
			k = max(0, k-gap)
		}
	}
	for lo >= 0 && hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := try(mid)
		if err != nil {
			return err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		b.violate("ingest ladder: even %.0f req/s misses the %v p99 limit", ladderRate(0), latencyLimit)
		b.m["trajserve.ingest_max_pts_s"] = 0
		return nil
	}
	b.m["trajserve.ingest_max_pts_s"] = results[lo]
	return nil
}

// --- history -----------------------------------------------------------------

func runHistory(b *bench) error {
	b.flags = baseFlags("-fsync", "never", "-retention-bytes", strconv.Itoa(historyRetention),
		"-read-cache-bytes", strconv.Itoa(historyCache))
	devs := makeDevices(b.cfg.seed, "h", historyDevs)
	probe := makeDevices(b.cfg.seed, "probe", 1)[0]
	plan := preloadPlan(devs, basePoints)
	var preOps []*op
	var rates []float64
	if err := b.setup(b.preloader(plan, &preOps, &rates)); err != nil {
		return err
	}
	for _, d := range devs {
		d.closeSession()
	}
	b.putPreload(preOps, rates, true)

	// Zipf-skewed devices and windows, each ranked by a seeded
	// permutation so the hot ones are spread over files and devices.
	r := newRand(b.cfg.seed, "history-queries")
	devRank := r.Perm(len(devs))
	nWin := basePoints / historyWindow
	winRank := make([][]int, len(devs))
	for i := range winRank {
		winRank[i] = r.Perm(nWin)
	}
	zd, zw := newZipf(len(devs), zipfS), newZipf(nWin, zipfS)
	n := historyRate * b.cfg.seconds
	var scheds [2][]*op
	for i := 0; i < n; i++ {
		di := devRank[zd.draw(r)]
		d := devs[di]
		n0 := winRank[di][zw.draw(r)] * historyWindow
		var o *op
		if r.Float64() < historyRange {
			o = rangeOp(d, n0, n0+historyWindow-1)
		} else {
			o = atOp(d, n0+r.IntN(historyWindow))
		}
		o.due = time.Duration(i) * time.Second / historyRate
		scheds[i%2] = append(scheds[i%2], o)
	}
	ws, err := b.window(scheds[0], scheds[1])
	if err != nil {
		return err
	}
	all := append(append([]*op(nil), scheds[0]...), scheds[1]...)
	b.count(all)
	b.putTiming("range_p50_ms", "range", latencies(all, opRange))
	b.putTiming("at_p50_ms", "at", latencies(all, opAt))
	b.putServerCost(ws, all)
	b.putLate(all)
	replay, st, err := b.flushAndCheck(devs)
	if err != nil {
		return err
	}
	if st.Store.DeletedFiles != 0 {
		b.violate("retention deleted %d files; history must keep every record", st.Store.DeletedFiles)
	}
	b.checkQueries(all, replay, true)
	if b.cfg.trace {
		if err := b.probePhase(probe); err != nil {
			return err
		}
		return b.traced(tracePlan{
			store:   segstore.Config{Sync: segstore.SyncNever, MaxLogBytes: historyRetention, ReadCacheBytes: historyCache},
			devs:    devs,
			preload: plan,
			scheds:  scheds[:],
			window:  ws,
		})
	}
	return b.putPeakRSS()
}

// --- live --------------------------------------------------------------------

func runLive(b *bench) error {
	b.flags = baseFlags("-fsync", "interval")
	devs := makeDevices(b.cfg.seed, "l", fleetDevs)
	probe := makeDevices(b.cfg.seed, "probe", 1)[0]
	plan := preloadPlan(devs, livePreload)
	var preOps []*op
	var rates []float64
	if err := b.setup(b.preloader(plan, &preOps, &rates)); err != nil {
		return err
	}
	for _, d := range devs {
		d.closeSession()
	}
	b.putPreload(preOps, rates, false)

	// Connection 1: the fleet stream. Remember when each device's newest
	// point was due, for the tail windows below.
	type sent struct {
		due   time.Duration
		lastT int64
	}
	newest := make([][]sent, len(devs))
	n := liveIngest * b.cfg.seconds
	ingest := make([]*op, n)
	for i := range ingest {
		due := time.Duration(i) * time.Second / liveIngest
		ingest[i] = &op{kind: opIngest, pts: batchDevs * batchPts, body: fleetRequest(devs, i*batchDevs, batchPts), due: due}
		for j := 0; j < batchDevs; j++ {
			k := (i*batchDevs + j) % len(devs)
			newest[k] = append(newest[k], sent{due, devs[k].point(devs[k].sent - 1).T})
		}
	}
	// Connection 2: /segments over each device's newest five minutes of
	// sent points (the persisted part of a growing tail), alternating with
	// /at at sample times inside the flushed history.
	r := newRand(b.cfg.seed, "live-queries")
	nq := liveQueries * b.cfg.seconds
	queries := make([]*op, nq)
	for i := range queries {
		due := time.Duration(i)*time.Second/liveQueries + time.Second/(2*liveQueries)
		k := r.IntN(len(devs))
		d := devs[k]
		if i%2 == 0 {
			lastT := d.point(livePreload - 1).T
			h := newest[k]
			if j := sort.Search(len(h), func(j int) bool { return h[j].due > due }); j > 0 {
				lastT = h[j-1].lastT
			}
			from := lastT - liveTailSpanM
			queries[i] = &op{kind: opRange, dev: d, from: from, to: lastT,
				path: fmt.Sprintf("/devices/%s/segments?from=%d&to=%d", d.id, from, lastT)}
		} else {
			queries[i] = atOp(d, r.IntN(livePreload))
		}
		queries[i].due = due
	}
	ws, err := b.window(ingest, queries)
	if err != nil {
		return err
	}
	all := append(append([]*op(nil), ingest...), queries...)
	b.count(all)
	b.putTiming("ingest_p50_ms", "ingest", latencies(ingest, opIngest))
	b.putTiming("range_p50_ms", "range", latencies(queries, opRange))
	b.putTiming("at_p50_ms", "at", latencies(queries, opAt))
	b.putServerCost(ws, all)
	b.putLate(all)
	replay, _, err := b.flushAndCheck(devs)
	if err != nil {
		return err
	}
	b.checkQueries(queries, replay, false)
	if b.cfg.trace {
		if err := b.probePhase(probe); err != nil {
			return err
		}
		return b.traced(tracePlan{
			store:   segstore.Config{Sync: segstore.SyncInterval, ReadCacheBytes: segstore.DefaultReadCacheBytes},
			devs:    devs,
			preload: plan,
			scheds:  [][]*op{ingest, queries},
			window:  ws,
			httpIng: summarize(durations(latencies(ingest, opIngest))),
		})
	}
	return b.putPeakRSS()
}
