package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"f2/internal/obs"
)

// TestQuantileEmptyOp: an op histogram with no samples reports 0 for
// every quantile gauge, not NaN.
func TestQuantileEmptyOp(t *testing.T) {
	s := &opStats{byClass: make(map[string]uint64), h: obs.NewHistogram(latencyBuckets)}
	if got := s.h.Quantile(0.5); got != 0 {
		t.Errorf("quantile on empty stats = %v, want 0", got)
	}
	var b strings.Builder
	writeQuantiles(&b, "f2_http_request_latency_quantile_seconds", "op", "put", s.h)
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if !strings.HasSuffix(line, " 0.000000") {
			t.Errorf("empty op gauge %q, want value 0", line)
		}
	}
}

// TestEscapeLabelValue pins the Prometheus text-exposition escaping:
// backslash, double quote, and newline are the only escapes, applied in
// one pass.
func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"\"}\nevil_metric 1", `\"}\nevil_metric 1`},
		{"", ""},
	}
	for _, c := range cases {
		if got := escapeLabelValue(c.in); got != c.want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestSanitizeName: names have no quoting to hide behind, so every rune
// outside [a-zA-Z_][a-zA-Z0-9_]* becomes '_'.
func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"mode", "mode"},
		{"f2_flushes_total", "f2_flushes_total"},
		{"9starts_with_digit", "_starts_with_digit"},
		{"has-dash.dot", "has_dash_dot"},
		{`evil"} label`, "evil___label"},
		{"", "_"},
	}
	for _, c := range cases {
		if got := sanitizeName(c.in); got != c.want {
			t.Errorf("sanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestIncCounterHostileLabels: a label value containing quotes and
// newlines must not break out of its quoted position in the rendered
// exposition — the regression this guards is IncCounter interpolating
// label strings verbatim.
func TestIncCounterHostileLabels(t *testing.T) {
	m := NewMetrics()
	m.IncCounter("f2_flushes_total", "mode", "inc\"} pwned_total 999\n")
	m.IncCounter("f2_flushes_total", "bad-name", "v")
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	if !strings.Contains(out, `f2_flushes_total{mode="inc\"} pwned_total 999\n"} 1`) {
		t.Errorf("hostile label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, `f2_flushes_total{bad_name="v"} 1`) {
		t.Errorf("label name not sanitized:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pwned_total") {
			t.Fatalf("hostile value injected a metric line: %q", line)
		}
	}
}

// TestIncCounterOddPairDropped: a trailing label name without a value is
// dropped rather than rendered half-formed.
func TestIncCounterOddPairDropped(t *testing.T) {
	m := NewMetrics()
	m.IncCounter("f2_things_total", "mode", "x", "dangling")
	var b strings.Builder
	m.Render(&b)
	if !strings.Contains(b.String(), `f2_things_total{mode="x"} 1`) {
		t.Errorf("odd kv tail mishandled:\n%s", b.String())
	}
}

// TestRenderGaugeCallbackMayUseMetrics is the lock-inversion regression
// test: Render used to invoke gauge callbacks while holding m.mu, so a
// gauge whose closure touches Metrics (directly or through its owner's
// lock) deadlocked the /metrics scrape. With the snapshot-then-call
// pattern this completes.
func TestRenderGaugeCallbackMayUseMetrics(t *testing.T) {
	m := NewMetrics()
	m.RegisterGauge("f2_reentrant", func() float64 {
		m.IncCounter("f2_gauge_calls_total")
		return 1
	})
	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		m.Render(&b)
		done <- b.String()
	}()
	select {
	case out := <-done:
		if !strings.Contains(out, "f2_reentrant 1") {
			t.Errorf("gauge missing from render:\n%s", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Render deadlocked on a reentrant gauge callback")
	}
}

// TestStageHistogramCumulative pins the stage histogram rendering:
// cumulative buckets, sum/count/max, escaped stage label.
func TestStageHistogramCumulative(t *testing.T) {
	m := NewMetrics()
	m.ObserveStage("wal.fsync", 50*time.Microsecond)  // bucket le=0.0001
	m.ObserveStage("wal.fsync", 300*time.Microsecond) // bucket le=0.0005
	m.ObserveStage("wal.fsync", 30*time.Second)       // +Inf
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE f2_stage_duration_seconds histogram",
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.0001"} 1`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.0005"} 2`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="20"} 2`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="+Inf"} 3`,
		`f2_stage_duration_seconds_count{stage="wal.fsync"} 3`,
		`f2_stage_duration_seconds_max{stage="wal.fsync"} 30.000000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stage histogram missing %q in:\n%s", want, out)
		}
	}
}

// TestMetricsRenderQuantileGauges checks the derived gauges land in the
// Prometheus exposition with the pinned interpolated values. 8 × 500µs
// fall in (0, 1ms] and 2 × 2ms in (1ms, 5ms]; rank r = q·10, and each
// bucket is clamped to the observed [500µs, 2ms]:
//
//	p50: r=5, 500µs + (1ms−500µs)·5/8 = 812.5µs → 0.000813
//	p95: r=9.5, 1ms + (2ms−1ms)·1.5/2 = 1.75ms
//	p99: r=9.9, 1ms + (2ms−1ms)·1.9/2 = 1.95ms
func TestMetricsRenderQuantileGauges(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 8; i++ {
		m.Observe("flush", 200, 500*time.Microsecond)
	}
	for i := 0; i < 2; i++ {
		m.Observe("flush", 200, 2*time.Millisecond)
	}
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		`# TYPE f2_http_request_latency_quantile_seconds gauge`,
		`f2_http_request_latency_quantile_seconds{op="flush",quantile="0.5"} 0.000813`,
		`f2_http_request_latency_quantile_seconds{op="flush",quantile="0.95"} 0.001750`,
		`f2_http_request_latency_quantile_seconds{op="flush",quantile="0.99"} 0.001950`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestRenderHistogramExposition pins every _bucket, _sum, _count and _max
// line both histogram families render for fixed observations — bounds
// on and between bucket edges, past the last finite bound, and two
// series per family.
func TestRenderHistogramExposition(t *testing.T) {
	m := NewMetrics()
	for _, d := range []time.Duration{300 * time.Microsecond, time.Millisecond, 1234567 * time.Nanosecond,
		40 * time.Millisecond, 2500 * time.Millisecond, 42 * time.Second} {
		m.Observe("create", 200, d)
	}
	m.Observe("create", 503, 7*time.Millisecond)
	m.Observe("decrypt", 200, 3*time.Millisecond)
	for _, d := range []time.Duration{3 * time.Microsecond, 5 * time.Microsecond, 77 * time.Microsecond,
		1500 * time.Microsecond, 333 * time.Millisecond, 30 * time.Second} {
		m.ObserveStage("wal.fsync", d)
	}
	m.ObserveStage("encrypt.step1.mas", 12*time.Millisecond)
	var b strings.Builder
	m.Render(&b)
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "f2_stage_duration_seconds_") || strings.HasPrefix(line, "f2_http_request_duration_seconds_") {
			got = append(got, line)
		}
	}
	want := []string{
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="5e-06"} 0`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="2.5e-05"} 0`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="0.0001"} 0`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="0.0005"} 0`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="0.0025"} 0`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="0.01"} 0`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="0.05"} 1`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="0.25"} 1`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="1"} 1`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="5"} 1`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="20"} 1`,
		`f2_stage_duration_seconds_bucket{stage="encrypt.step1.mas",le="+Inf"} 1`,
		`f2_stage_duration_seconds_sum{stage="encrypt.step1.mas"} 0.012000`,
		`f2_stage_duration_seconds_count{stage="encrypt.step1.mas"} 1`,
		`f2_stage_duration_seconds_max{stage="encrypt.step1.mas"} 0.012000`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="5e-06"} 2`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="2.5e-05"} 2`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.0001"} 3`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.0005"} 3`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.0025"} 4`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.01"} 4`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.05"} 4`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="0.25"} 4`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="1"} 5`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="5"} 5`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="20"} 5`,
		`f2_stage_duration_seconds_bucket{stage="wal.fsync",le="+Inf"} 6`,
		`f2_stage_duration_seconds_sum{stage="wal.fsync"} 30.334585`,
		`f2_stage_duration_seconds_count{stage="wal.fsync"} 6`,
		`f2_stage_duration_seconds_max{stage="wal.fsync"} 30.000000`,
		`f2_http_request_duration_seconds_bucket{op="create",le="0.001"} 2`,
		`f2_http_request_duration_seconds_bucket{op="create",le="0.005"} 3`,
		`f2_http_request_duration_seconds_bucket{op="create",le="0.025"} 4`,
		`f2_http_request_duration_seconds_bucket{op="create",le="0.1"} 5`,
		`f2_http_request_duration_seconds_bucket{op="create",le="0.5"} 5`,
		`f2_http_request_duration_seconds_bucket{op="create",le="2.5"} 6`,
		`f2_http_request_duration_seconds_bucket{op="create",le="10"} 6`,
		`f2_http_request_duration_seconds_bucket{op="create",le="+Inf"} 7`,
		`f2_http_request_duration_seconds_sum{op="create"} 44.549535`,
		`f2_http_request_duration_seconds_count{op="create"} 7`,
		`f2_http_request_duration_seconds_max{op="create"} 42.000000`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="0.001"} 0`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="0.005"} 1`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="0.025"} 1`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="0.1"} 1`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="0.5"} 1`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="2.5"} 1`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="10"} 1`,
		`f2_http_request_duration_seconds_bucket{op="decrypt",le="+Inf"} 1`,
		`f2_http_request_duration_seconds_sum{op="decrypt"} 0.003000`,
		`f2_http_request_duration_seconds_count{op="decrypt"} 1`,
		`f2_http_request_duration_seconds_max{op="decrypt"} 0.003000`,
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("histogram exposition changed:\ngot:\n%s\nwant:\n%s", g, w)
	}
}

// TestStageBucketsResolveFastStages: a 3µs and a 10µs observation land
// in distinct buckets (before the 5µs/25µs bounds existed, both fell
// into the first bucket and fast stages were indistinguishable).
func TestStageBucketsResolveFastStages(t *testing.T) {
	m := NewMetrics()
	m.ObserveStage("buffer.append", 3*time.Microsecond)
	m.ObserveStage("buffer.append", 10*time.Microsecond)
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		`f2_stage_duration_seconds_bucket{stage="buffer.append",le="5e-06"} 1`,
		`f2_stage_duration_seconds_bucket{stage="buffer.append",le="2.5e-05"} 2`,
		`f2_stage_duration_quantile_seconds{stage="buffer.append",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestRenderGaugeVec: a gauge-vector callback renders one HELP/TYPE
// header and one labeled sample per reading, and — like scalar gauges —
// runs without the Metrics lock held, so it may itself use Metrics.
func TestRenderGaugeVec(t *testing.T) {
	m := NewMetrics()
	m.RegisterGaugeVec("f2_runtime_gc_pause_seconds", func() []GaugeSample {
		m.IncCounter("f2_reentrant_total") // deadlocks if called under m.mu
		return []GaugeSample{
			{Labels: []string{"quantile", "0.5"}, Value: 0.001},
			{Labels: []string{"quantile", "0.99"}, Value: 0.004},
		}
	})
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE f2_runtime_gc_pause_seconds gauge",
		"# HELP f2_runtime_gc_pause_seconds",
		`f2_runtime_gc_pause_seconds{quantile="0.5"} 0.001`,
		`f2_runtime_gc_pause_seconds{quantile="0.99"} 0.004`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestRenderEveryFamilyHasHelp walks a fully populated render and
// requires each # TYPE line to be immediately preceded by the matching
// # HELP line — the contract the restart smoke's exposition validator
// (and any strict Prometheus parser) enforces.
func TestRenderEveryFamilyHasHelp(t *testing.T) {
	m := NewMetrics()
	m.Observe("op", 200, time.Millisecond)
	m.ObserveStage("wal.fsync", 100*time.Microsecond)
	m.IncCounter("f2_flushes_total", "mode", "full")
	m.RegisterGauge("f2_datasets", func() float64 { return 1 })
	m.RegisterCounterFunc("f2_wal_fsync_total", func() float64 { return 2 })
	m.RegisterGaugeVec("f2_runtime_gc_pause_seconds", func() []GaugeSample {
		return []GaugeSample{{Labels: []string{"quantile", "0.5"}, Value: 0}}
	})
	var b strings.Builder
	m.Render(&b)
	lines := strings.Split(b.String(), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Errorf("family %s has TYPE without preceding HELP", name)
		}
	}
}

// TestAPIDocListsEveryFamily renders /metrics with every family in
// metricHelp registered and requires each rendered family to have a row
// in docs/API.md's metrics table, so a new series cannot ship
// undocumented.
func TestAPIDocListsEveryFamily(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	m.Observe("op", 200, time.Millisecond)        // the families Render
	m.ObserveStage("wal.fsync", time.Millisecond) // emits on its own
	for name := range metricHelp {
		m.RegisterGauge(name, func() float64 { return 0 })
	}
	var b strings.Builder
	m.Render(&b)
	rendered := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			rendered[strings.Fields(line)[2]] = true
		}
	}
	for name := range metricHelp {
		if !rendered[name] {
			t.Errorf("%s has HELP text but did not render", name)
		}
	}
	for name := range rendered {
		if !strings.Contains(string(doc), "| `"+name+"` |") {
			t.Errorf("docs/API.md has no metrics-table row for %s", name)
		}
	}
}
