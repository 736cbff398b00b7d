package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// The runtime sampler reads these runtime/metrics series. Heap and
// goroutine counts are point-in-time gauges; GC pauses and scheduler
// latencies arrive as cumulative histograms, so the sampler diffs
// consecutive reads and derives window quantiles (falling back to the
// since-boot distribution while a window saw no events).
const (
	metricHeapBytes  = "/memory/classes/heap/objects:bytes"
	metricTotalBytes = "/memory/classes/total:bytes"
	metricGoroutines = "/sched/goroutines:goroutines"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
	metricGCPauses   = "/gc/pauses:seconds"
	metricSchedLat   = "/sched/latencies:seconds"
)

// Quantiles is a fixed p50/p90/p99 summary of one histogram window, in
// the histogram's native unit (seconds for the runtime latency series).
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// RuntimeSample is one point-in-time reading of process health: memory,
// goroutines, GC progress, and the pause/sched-latency distributions of
// the window since the previous sample.
type RuntimeSample struct {
	Time                time.Time `json:"time"`
	HeapBytes           uint64    `json:"heapBytes"`
	TotalBytes          uint64    `json:"totalBytes"`
	Goroutines          uint64    `json:"goroutines"`
	GCCycles            uint64    `json:"gcCycles"`
	GCPauseSeconds      Quantiles `json:"gcPauseSeconds"`
	SchedLatencySeconds Quantiles `json:"schedLatencySeconds"`
}

// RuntimeSampler periodically reads runtime/metrics into a bounded
// in-memory history ring. The latest sample backs the f2_runtime_*
// gauges on /metrics; the ring backs GET /v1/debug/runtime, giving an
// operator the last ~30 minutes of process health with no external
// scraper in the loop.
type RuntimeSampler struct {
	every time.Duration
	cap   int

	mu      sync.Mutex
	latest  RuntimeSample
	history []RuntimeSample // oldest first, bounded at cap

	// prev* retain the last cumulative histogram read so the next sample
	// can diff a window out of it. Accessed only by the sampler goroutine
	// (and the initial synchronous sample before it starts).
	prevPause *metrics.Float64Histogram
	prevSched *metrics.Float64Histogram

	stop chan struct{}
	done chan struct{}
}

// NewRuntimeSampler builds a sampler reading every `every` (minimum
// 100ms) and retaining `history` samples (minimum 2).
func NewRuntimeSampler(every time.Duration, history int) *RuntimeSampler {
	if every < 100*time.Millisecond {
		every = 100 * time.Millisecond
	}
	if history < 2 {
		history = 2
	}
	return &RuntimeSampler{
		every: every,
		cap:   history,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start takes one synchronous sample — so Latest is never zero once
// Start returns — and launches the background loop.
func (s *RuntimeSampler) Start() {
	s.sample()
	go s.loop()
}

// Stop halts the background loop and waits for it to exit. The retained
// history stays readable.
func (s *RuntimeSampler) Stop() {
	close(s.stop)
	<-s.done
}

// Latest returns the most recent sample.
func (s *RuntimeSampler) Latest() RuntimeSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// History returns the retained samples, oldest first.
func (s *RuntimeSampler) History() []RuntimeSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RuntimeSample(nil), s.history...)
}

func (s *RuntimeSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sample()
		}
	}
}

// sample reads the runtime series once and appends the derived sample to
// the ring.
func (s *RuntimeSampler) sample() {
	reads := []metrics.Sample{
		{Name: metricHeapBytes},
		{Name: metricTotalBytes},
		{Name: metricGoroutines},
		{Name: metricGCCycles},
		{Name: metricGCPauses},
		{Name: metricSchedLat},
	}
	metrics.Read(reads)
	out := RuntimeSample{Time: time.Now().UTC()}
	for _, r := range reads {
		switch r.Name {
		case metricHeapBytes:
			out.HeapBytes = uint64Of(r.Value)
		case metricTotalBytes:
			out.TotalBytes = uint64Of(r.Value)
		case metricGoroutines:
			out.Goroutines = uint64Of(r.Value)
		case metricGCCycles:
			out.GCCycles = uint64Of(r.Value)
		case metricGCPauses:
			if r.Value.Kind() == metrics.KindFloat64Histogram {
				h := r.Value.Float64Histogram()
				out.GCPauseSeconds = windowQuantiles(h, s.prevPause)
				s.prevPause = cloneHist(h)
			}
		case metricSchedLat:
			if r.Value.Kind() == metrics.KindFloat64Histogram {
				h := r.Value.Float64Histogram()
				out.SchedLatencySeconds = windowQuantiles(h, s.prevSched)
				s.prevSched = cloneHist(h)
			}
		}
	}
	s.mu.Lock()
	s.latest = out
	s.history = append(s.history, out)
	if len(s.history) > s.cap {
		// Shift in place so the backing array cannot grow unbounded over
		// the process lifetime (same discipline as the trace ring).
		copy(s.history, s.history[1:])
		s.history = s.history[:s.cap]
	}
	s.mu.Unlock()
}

// uint64Of reads a numeric metric value defensively: a series this Go
// version does not export reports KindBad, which must read as zero, not
// panic an always-on sampler.
func uint64Of(v metrics.Value) uint64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return v.Uint64()
	case metrics.KindFloat64:
		return uint64(v.Float64())
	}
	return 0
}

func cloneHist(h *metrics.Float64Histogram) *metrics.Float64Histogram {
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// windowQuantiles derives p50/p90/p99 from the histogram delta between
// cur and prev. With no prev (first sample) or no events in the window
// it falls back to the cumulative since-boot distribution — a flat line
// is more useful than a zero when the process is idle.
func windowQuantiles(cur, prev *metrics.Float64Histogram) Quantiles {
	h := fromRuntime(cur, prev)
	return Quantiles{P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99)}
}
