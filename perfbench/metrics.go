package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric: its unit and which way is
// better. Traced metrics also name the end-to-end metrics and workloads
// they are expected to move (the layer map in README.md).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	moves  string // per-layer metrics only
}

// endToEnd are the metrics an untraced run (-trace 0) reports on every
// workload. Where a metric's main-window traffic does not exist on a
// workload, a short phase outside the measured window supplies it; see
// README.md ("What each workload reports"). The p99s, the ack-to-durable
// lag and the highest sustained ingest rate are per-layer metrics of
// trajserve instead: on a shared two-CPU VM their run-to-run spread is
// wider than any bound a regression gate could use.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ingest_p50_ms", unit: "ms", better: "lower"},
	{name: "range_p50_ms", unit: "ms", better: "lower"},
	{name: "at_p50_ms", unit: "ms", better: "lower"},
	{name: "compression_ratio", unit: "pts/seg", better: "higher"},
	{name: "avg_err_m", unit: "m", better: "lower"},
	{name: "stored_bytes_per_pt", unit: "B/pt", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "server_cpu_us_per_req", unit: "us/req", better: "lower"},
}

// perLayer are the metrics a traced run (-trace 1) reports. Counters are
// /stats deltas around the untraced window; timings and gauges come from
// the in-process replay.
var perLayer = []metricDef{
	{"trajio.decode_ns_per_pt", "ns/pt", "lower", "server_cpu_us_per_req, trajserve.ingest_max_pts_s on ingest; nothing on history"},
	{"core.push_ns_per_pt", "ns/pt", "lower", "server_cpu_us_per_req, trajserve.ingest_max_pts_s on ingest; server_cpu_us_per_req on live; nothing on history"},
	{"core.pts_per_segment", "pts/seg", "higher", "compression_ratio on ingest, live (must equal it)"},
	{"core.patch_frac", "frac", "higher", "compression_ratio on ingest, live"},
	{"stream.ingest_us_p50", "us", "lower", "ingest_p50_ms on ingest, live"},
	{"stream.ingest_us_p99", "us", "lower", "trajserve.ingest_p99_ms on ingest, live"},
	{"stream.self_ns_per_pt", "ns/pt", "lower", "server_cpu_us_per_req on ingest"},
	{"stream.contended_frac", "frac", "lower", "trajserve.ingest_p99_ms on ingest"},
	{"stream.queue_wait_ms_p50", "ms", "lower", "trajserve.persist_lag_p50_ms on ingest"},
	{"stream.queue_wait_ms_p99", "ms", "lower", "trajserve.persist_lag_p50_ms on ingest"},
	{"stream.batches_per_sweep", "batches/sweep", "higher", "trajserve.persist_lag_p50_ms on ingest"},
	{"stream.sink_queued_max", "count", "lower", "trajserve.persist_lag_p99_ms, trajserve.ingest_p99_ms on ingest"},
	{"stream.sink_blocked", "count", "lower", "trajserve.persist_lag_p99_ms, trajserve.ingest_p99_ms on ingest"},
	{"segstore.append_us_p50", "us", "lower", "trajserve.persist_lag_p50_ms on ingest"},
	{"segstore.append_us_p99", "us", "lower", "trajserve.persist_lag_p50_ms on ingest"},
	{"segstore.commit_us_p50", "us", "lower", "trajserve.persist_lag_p50_ms on ingest; near zero on live"},
	{"segstore.commit_us_p99", "us", "lower", "trajserve.persist_lag_p50_ms on ingest; near zero on live"},
	{"segstore.fsyncs_per_batch", "fsyncs/batch", "lower", "trajserve.persist_lag_p50_ms, trajserve.ingest_max_pts_s on ingest"},
	{"segstore.handle_miss_frac", "frac", "lower", "trajserve.ingest_p99_ms, trajserve.persist_lag_p99_ms on ingest"},
	{"segstore.open_handles_max", "count", "lower", "peak_rss_mb on ingest"},
	{"segstore.bytes_per_segment", "B/seg", "lower", "stored_bytes_per_pt on ingest, live"},
	{"segstore.replayrange_us_p50", "us", "lower", "range_p50_ms on history, live"},
	{"segstore.replayrange_us_p99", "us", "lower", "trajserve.range_p99_ms on history, live"},
	{"segstore.segmentat_us_p50", "us", "lower", "at_p50_ms on history, live"},
	{"segstore.segmentat_us_p99", "us", "lower", "trajserve.at_p99_ms on history, live"},
	{"segstore.cache_hit_frac", "frac", "higher", "range_p50_ms, at_p50_ms on history"},
	{"segstore.read_bytes_per_query", "B/query", "lower", "trajserve.range_p99_ms on history"},
	{"segstore.index_rebuilds", "count", "lower", "setup_s on history"},
	{"segstore.absorbed_misses", "count", "lower", "correctness of /at and /segments on history, live (time reads miss absorbed points)"},
	{"trajserve.overhead_us_p50", "us", "lower", "ingest_p50_ms on ingest, live"},
	{"trajserve.ingest_max_pts_s", "pts/s", "higher", "capacity: ladder on ingest, best closed-loop preload on history, live"},
	{"trajserve.persist_lag_p50_ms", "ms", "lower", "ack-to-durable: ingest's window probe; probe phase on history, live"},
	{"trajserve.ingest_p99_ms", "ms", "lower", "tail of ingest_p50_ms's population: /ingest from due time, ingest and live windows"},
	{"trajserve.persist_lag_p99_ms", "ms", "lower", "tail of trajserve.persist_lag_p50_ms"},
	{"trajserve.range_p99_ms", "ms", "lower", "tail of range_p50_ms: /segments on history and live windows"},
	{"trajserve.at_p99_ms", "ms", "lower", "tail of at_p50_ms: /at on history and live windows"},
	{"loadgen.late_ms_p99", "ms", "lower", "none: validity of the run"},
	{"trace.overhead_frac", "frac", "lower", "none: cost of the spans"},
}

// metricSet collects one run's values by name.
type metricSet map[string]float64

// samples is one latency population in nanoseconds.
type samples []int64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// quantile returns the nearest-rank q-quantile of an ascending sample.
func (s samples) quantile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// summary is a timing population's median and p99 with its sample count.
type summary struct {
	n        int
	p50, p99 time.Duration
}

func summarize(s samples) summary {
	c := s.sorted()
	return summary{n: len(c), p50: time.Duration(c.quantile(0.50)), p99: time.Duration(c.quantile(0.99))}
}

// tailOK reports whether the p99 has at least ten samples beyond it.
func (s summary) tailOK() bool { return s.n >= 1000 }

func (s summary) String() string {
	warn := ""
	if !s.tailOK() {
		warn = " (fewer than 10 samples beyond p99)"
	}
	return fmt.Sprintf("n=%d p50=%v p99=%v%s", s.n, s.p50, s.p99, warn)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
