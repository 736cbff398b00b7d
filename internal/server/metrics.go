package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"f2/internal/obs"
)

// latencyBuckets are the upper bounds, in seconds, of the request-latency
// histogram, exponential from 1ms to 10s (the F² rebuild of a large
// dataset sits in the upper buckets, metadata reads in the lowest).
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// stageBuckets bound the per-stage histogram, in seconds. Stages are one
// slice of a request — an in-memory buffer append is single-digit
// microseconds, a WAL fsync ~100µs, a full rebuild's Step 1 can run for
// seconds — so the range starts four decades below latencyBuckets' top
// and ends at 20s. The sub-100µs buckets matter: without them every fast
// stage collapses into the first bucket and its interpolated quantiles
// are fiction.
var stageBuckets = []float64{5e-6, 25e-6, 100e-6, 500e-6, 2500e-6, 0.01, 0.05, 0.25, 1, 5, 20}

// opStats accumulates one operation's status-class counters and latency
// histogram.
type opStats struct {
	byClass map[string]uint64 // "2xx", "4xx", "5xx"
	h       *obs.Histogram
}

// Metrics records per-operation request counts and latency histograms and
// renders them in Prometheus text exposition format. Gauges (pool depth,
// dataset count) are registered as callbacks so the render reflects live
// state without Metrics knowing about its producers.
type Metrics struct {
	mu         sync.Mutex
	ops        map[string]*opStats
	stages     map[string]*obs.Histogram // pipeline stage durations, fed from completed trace spans
	gauges     map[string]func() float64
	gaugeVecs  map[string]func() []GaugeSample
	counters   map[string]map[string]uint64 // name -> rendered label list -> count
	counterFns map[string]func() float64    // counters owned by other subsystems
	start      time.Time
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		ops:        make(map[string]*opStats),
		stages:     make(map[string]*obs.Histogram),
		gauges:     make(map[string]func() float64),
		gaugeVecs:  make(map[string]func() []GaugeSample),
		counters:   make(map[string]map[string]uint64),
		counterFns: make(map[string]func() float64),
		start:      time.Now(),
	}
}

// metricHelp is the HELP text for every family the server renders. The
// restart smoke validates /metrics as well-formed exposition (every
// family carries HELP and TYPE), so a new series must land here too —
// the fallback text keeps the page valid but reads as the reproach it is.
var metricHelp = map[string]string{
	"f2_uptime_seconds":                        "Seconds since the server started.",
	"f2_datasets":                              "Datasets currently registered.",
	"f2_pool_workers":                          "Worker goroutines in the shared compute pool.",
	"f2_pool_active_jobs":                      "Pool jobs currently executing.",
	"f2_pool_queued_jobs":                      "Pool jobs waiting for a worker.",
	"f2_ingest_queue_depth":                    "Bytes buffered awaiting background flush, across datasets.",
	"f2_wal_fsync_total":                       "Group-commit WAL fsyncs issued.",
	"f2_wal_group_commit_size":                 "Mean append batches per WAL fsync.",
	"f2_snapshot_chunks_written_total":         "Snapshot chunks physically written.",
	"f2_snapshot_chunks_reused_total":          "Snapshot chunks re-linked by content address instead of rewritten.",
	"f2_snapshot_bytes_written_total":          "Bytes physically written by snapshot rotations.",
	"f2_snapshot_bytes_reused_total":           "Uncompressed payload bytes deduplicated by content addressing.",
	"f2_snapshot_gc_failures_total":            "Rotation-time chunk sweeps that failed, leaking unreferenced chunks.",
	"f2_flushes_total":                         "Dataset flushes by mode.",
	"f2_runtime_heap_bytes":                    "Bytes of live heap objects (runtime/metrics).",
	"f2_runtime_total_bytes":                   "Total bytes of memory mapped by the Go runtime.",
	"f2_runtime_goroutines":                    "Live goroutines.",
	"f2_runtime_gc_cycles_total":               "Completed GC cycles.",
	"f2_runtime_gc_pause_seconds":              "GC stop-the-world pause quantiles over the last sample window.",
	"f2_runtime_sched_latency_seconds":         "Goroutine scheduling latency quantiles over the last sample window.",
	"f2_watchdog_stalls_total":                 "Stalls the watchdog detected (and captured incidents for).",
	"f2_incidents_total":                       "Incident files written to the on-disk ring, by kind.",
	"f2_stage_duration_seconds":                "Pipeline stage durations from completed trace spans.",
	"f2_stage_duration_quantile_seconds":       "Server-side stage duration quantiles.",
	"f2_http_requests_total":                   "HTTP requests by operation and status class.",
	"f2_http_request_duration_seconds":         "HTTP request latency by operation.",
	"f2_http_request_latency_quantile_seconds": "Server-side request latency quantiles.",
}

func helpFor(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	return "Undocumented series; add HELP text in metricHelp."
}

// writeHeader emits the HELP/TYPE preamble for one metric family.
func writeHeader(w io.Writer, name, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, helpFor(name), name, typ)
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition rules (backslash, double quote, newline), so a hostile
// value — a dataset name, say — cannot break out of its quoted position
// and corrupt the whole /metrics page.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// sanitizeName forces a metric or label name into the Prometheus charset
// [a-zA-Z_][a-zA-Z0-9_]*, replacing every invalid rune with '_'. Unlike
// values, names have no quoting to hide behind — they must be valid.
func sanitizeName(n string) string {
	if n == "" {
		return "_"
	}
	valid := func(i int, r rune) bool {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' {
			return true
		}
		return i > 0 && r >= '0' && r <= '9'
	}
	ok := true
	for i, r := range n {
		if !valid(i, r) {
			ok = false
			break
		}
	}
	if ok {
		return n
	}
	var b strings.Builder
	b.Grow(len(n))
	i := 0
	for _, r := range n {
		if valid(i, r) {
			b.WriteRune(r)
		} else {
			b.WriteRune('_')
		}
		i++
	}
	return b.String()
}

// IncCounter increments a labeled counter; kv alternates label names and
// values, e.g. IncCounter("f2_flushes_total", "mode", "incremental").
// Label names are sanitized and values escaped, so arbitrary strings are
// safe to pass through.
func (m *Metrics) IncCounter(name string, kv ...string) {
	labels := renderLabels(kv)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = make(map[string]uint64)
		m.counters[name] = c
	}
	c[labels]++
}

// renderLabels builds the exposition-format label list from alternating
// name/value pairs (a trailing odd name is dropped).
func renderLabels(kv []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitizeName(kv[i]), escapeLabelValue(kv[i+1]))
	}
	return b.String()
}

// RegisterGauge exposes a live value under the given metric name.
func (m *Metrics) RegisterGauge(name string, fn func() float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gauges[name] = fn
}

// GaugeSample is one labeled reading from a gauge-vector callback;
// Labels alternates name/value pairs as in IncCounter.
type GaugeSample struct {
	Labels []string
	Value  float64
}

// RegisterGaugeVec exposes a family of labeled gauges produced by one
// callback (e.g. a quantile summary emitting one sample per quantile).
// Same contract as RegisterGauge: the callback runs during Render with
// no Metrics lock held, so it may itself use Metrics.
func (m *Metrics) RegisterGaugeVec(name string, fn func() []GaugeSample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gaugeVecs[name] = fn
}

// RegisterCounterFunc exposes a monotonically increasing value owned by
// another subsystem (e.g. the store's WAL fsync count) as a counter. The
// callback contract matches RegisterGauge: called during Render with no
// Metrics lock held.
func (m *Metrics) RegisterCounterFunc(name string, fn func() float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counterFns[name] = fn
}

// Observe records one completed request for op with its HTTP status and
// latency.
func (m *Metrics) Observe(op string, status int, d time.Duration) {
	class := fmt.Sprintf("%dxx", status/100)
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.ops[op]
	if !ok {
		s = &opStats{byClass: make(map[string]uint64), h: obs.NewHistogram(latencyBuckets)}
		m.ops[op] = s
	}
	s.byClass[class]++
	s.h.Observe(d.Seconds())
}

// ObserveStage records one completed pipeline-stage span (from the
// tracing layer) under f2_stage_duration_seconds{stage=...}.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.stages[stage]
	if !ok {
		h = obs.NewHistogram(stageBuckets)
		m.stages[stage] = h
	}
	h.Observe(d.Seconds())
}

// Render writes the registry in Prometheus text format.
func (m *Metrics) Render(w io.Writer) {
	// Snapshot the gauge callbacks under the lock but CALL them unlocked:
	// a gauge closure reads live state owned by other subsystems (pool
	// stats, registry length), and invoking foreign code while holding
	// m.mu is a lock-inversion hazard — any gauge whose owner also calls
	// into Metrics under its own lock would deadlock.
	m.mu.Lock()
	gaugeFns := make(map[string]func() float64, len(m.gauges))
	for n, fn := range m.gauges {
		gaugeFns[n] = fn
	}
	vecFns := make(map[string]func() []GaugeSample, len(m.gaugeVecs))
	for n, fn := range m.gaugeVecs {
		vecFns[n] = fn
	}
	counterFns := make(map[string]func() float64, len(m.counterFns))
	for n, fn := range m.counterFns {
		counterFns[n] = fn
	}
	m.mu.Unlock()
	gaugeVals := make(map[string]float64, len(gaugeFns))
	names := make([]string, 0, len(gaugeFns))
	for n, fn := range gaugeFns {
		gaugeVals[n] = fn()
		names = append(names, n)
	}
	sort.Strings(names)
	vecVals := make(map[string][]GaugeSample, len(vecFns))
	vecNames := make([]string, 0, len(vecFns))
	for n, fn := range vecFns {
		vecVals[n] = fn()
		vecNames = append(vecNames, n)
	}
	sort.Strings(vecNames)
	counterFnVals := make(map[string]float64, len(counterFns))
	counterFnNames := make([]string, 0, len(counterFns))
	for n, fn := range counterFns {
		counterFnVals[n] = fn()
		counterFnNames = append(counterFnNames, n)
	}
	sort.Strings(counterFnNames)

	m.mu.Lock()
	defer m.mu.Unlock()

	writeHeader(w, "f2_uptime_seconds", "gauge")
	fmt.Fprintf(w, "f2_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	for _, n := range names {
		writeHeader(w, n, "gauge")
		fmt.Fprintf(w, "%s %g\n", n, gaugeVals[n])
	}

	for _, n := range vecNames {
		writeHeader(w, n, "gauge")
		for _, s := range vecVals[n] {
			if lbl := renderLabels(s.Labels); lbl != "" {
				fmt.Fprintf(w, "%s{%s} %g\n", n, lbl, s.Value)
			} else {
				fmt.Fprintf(w, "%s %g\n", n, s.Value)
			}
		}
	}

	for _, n := range counterFnNames {
		writeHeader(w, n, "counter")
		fmt.Fprintf(w, "%s %g\n", n, counterFnVals[n])
	}

	counterNames := make([]string, 0, len(m.counters))
	for n := range m.counters {
		counterNames = append(counterNames, n)
	}
	sort.Strings(counterNames)
	for _, n := range counterNames {
		writeHeader(w, n, "counter")
		labels := make([]string, 0, len(m.counters[n]))
		for l := range m.counters[n] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(w, "%s{%s} %d\n", n, l, m.counters[n][l])
		}
	}

	if len(m.stages) > 0 {
		stageNames := make([]string, 0, len(m.stages))
		for n := range m.stages {
			stageNames = append(stageNames, n)
		}
		sort.Strings(stageNames)
		writeHeader(w, "f2_stage_duration_seconds", "histogram")
		for _, n := range stageNames {
			writeHistogram(w, "f2_stage_duration_seconds", "stage", n, m.stages[n])
		}
		writeHeader(w, "f2_stage_duration_quantile_seconds", "gauge")
		for _, n := range stageNames {
			writeQuantiles(w, "f2_stage_duration_quantile_seconds", "stage", n, m.stages[n])
		}
	}

	opNames := make([]string, 0, len(m.ops))
	for n := range m.ops {
		opNames = append(opNames, n)
	}
	sort.Strings(opNames)
	if len(opNames) > 0 {
		writeHeader(w, "f2_http_requests_total", "counter")
		for _, n := range opNames {
			s := m.ops[n]
			classes := make([]string, 0, len(s.byClass))
			for c := range s.byClass {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				fmt.Fprintf(w, "f2_http_requests_total{op=%q,class=%q} %d\n", n, c, s.byClass[c])
			}
		}
		writeHeader(w, "f2_http_request_duration_seconds", "histogram")
		for _, n := range opNames {
			writeHistogram(w, "f2_http_request_duration_seconds", "op", n, m.ops[n].h)
		}
		writeHeader(w, "f2_http_request_latency_quantile_seconds", "gauge")
		for _, n := range opNames {
			writeQuantiles(w, "f2_http_request_latency_quantile_seconds", "op", n, m.ops[n].h)
		}
	}
}

// writeHistogram emits one labelled series of a histogram family:
// cumulative buckets, then _sum, _count and the exact _max.
func writeHistogram(w io.Writer, family, label, value string, h *obs.Histogram) {
	lbl := label + `="` + escapeLabelValue(value) + `"`
	bounds := h.Bounds()
	for i, cum := range h.Cumulative() {
		le := "+Inf"
		if i < len(bounds) {
			le = fmt.Sprintf("%g", bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n", family, lbl, le, cum)
	}
	fmt.Fprintf(w, "%s_sum{%s} %.6f\n", family, lbl, h.Sum())
	fmt.Fprintf(w, "%s_count{%s} %d\n", family, lbl, h.Count())
	fmt.Fprintf(w, "%s_max{%s} %.6f\n", family, lbl, h.Max())
}

// writeQuantiles emits the p50/p95/p99 gauges derived from h, so
// dashboards without a PromQL engine (and the perf harness) read them
// directly instead of reimplementing histogram_quantile.
func writeQuantiles(w io.Writer, family, label, value string, h *obs.Histogram) {
	lbl := label + `="` + escapeLabelValue(value) + `"`
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(w, "%s{%s,quantile=\"%g\"} %.6f\n", family, lbl, q, h.Quantile(q))
	}
}
