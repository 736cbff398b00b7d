package perf

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"f2/internal/obs"
)

// latencyBounds are the per-op latency bucket upper bounds in ns, 10 per
// decade from 1µs to 1000s: an interpolated quantile is off from the
// exact order statistic by at most one bucket ratio (10^0.1 ≈ 1.26), and
// in practice much less.
var latencyBounds = obs.LogBounds(1e3, 1e12, 10)

// stageAcc accumulates one stage's span durations within a worker.
type stageAcc struct {
	total time.Duration
	count int
}

// RunConfig bounds one measured run of a workload.
type RunConfig struct {
	// Concurrency is how many goroutines loop over the op (0 = 1). It is
	// clamped to the workload's MaxConcurrency.
	Concurrency int
	// WarmupOps executes (and discards) this many ops before the
	// measured window, so one-time costs (page faults, lazily built
	// caches) don't pollute the tail.
	WarmupOps int
	// Duration bounds the measured window's wall clock. 0 means
	// op-count-bound only.
	Duration time.Duration
	// MaxOps bounds the total measured op count. 0 means duration-bound
	// only. At least one of Duration/MaxOps must be set; the first op
	// always runs even if Duration has already elapsed.
	MaxOps int
	// Profile, when non-nil, captures profiles around the measured
	// window.
	Profile *ProfileConfig
	// Stages attaches a pipeline trace (internal/obs) to every measured
	// op and aggregates the per-stage span timings into RunResult.Stages.
	// The spans cover encrypt steps 1–4, incremental flush phases, WAL
	// appends/fsyncs, and snapshot rotation; workloads that cross an HTTP
	// boundary report no stages (the trace does not propagate over the
	// wire). Adds one trace allocation per op — leave it off when
	// measuring absolute latency ceilings.
	Stages bool
}

// RunResult is the machine-readable outcome of one run. Latencies are
// float64 milliseconds so reports diff cleanly and read naturally.
type RunResult struct {
	Workload    string  `json:"workload"`
	Concurrency int     `json:"concurrency"`
	Ops         int     `json:"ops"`
	Errors      int     `json:"errors,omitempty"`
	Cancelled   bool    `json:"cancelled,omitempty"`
	ElapsedMs   float64 `json:"elapsedMs"`

	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MinMs  float64 `json:"minMs"`
	MeanMs float64 `json:"meanMs"`
	MaxMs  float64 `json:"maxMs"`

	OpsPerSec  float64 `json:"opsPerSec"`
	RowsPerSec float64 `json:"rowsPerSec,omitempty"`

	// Metrics carries workload-specific values, e.g. ciphertextExpansion.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Stages is the per-stage breakdown aggregated from the op traces
	// (RunConfig.Stages). Keys are span names ("encrypt.step1.mas",
	// "wal.fsync", ...); nested spans appear under their own names, so
	// totals across stages can exceed ElapsedMs.
	Stages map[string]StageStat `json:"stages,omitempty"`

	Profiles []ProfileRef    `json:"profiles,omitempty"`
	Runtime  *RuntimeSummary `json:"runtime,omitempty"`
}

// StageStat aggregates one pipeline stage across all measured ops.
type StageStat struct {
	TotalMs float64 `json:"totalMs"`
	Count   int     `json:"count"`
	MeanMs  float64 `json:"meanMs"`
}

func ms(ns time.Duration) float64 { return float64(ns.Nanoseconds()) / 1e6 }

// Run sets up and measures one workload. On context cancellation it
// returns the partial result (Cancelled=true) together with ctx.Err(),
// so a driver can both report what it measured and stop the sweep. Any
// other error means the run produced no usable result.
func Run(ctx context.Context, w Workload, sc Scale, rc RunConfig) (*RunResult, error) {
	if w.OpsCap > 0 && (rc.MaxOps <= 0 || rc.MaxOps > w.OpsCap) {
		rc.MaxOps = w.OpsCap
	}
	if rc.Duration <= 0 && rc.MaxOps <= 0 {
		return nil, fmt.Errorf("perf: run of %q needs a Duration or MaxOps bound", w.Name)
	}
	conc := rc.Concurrency
	if conc <= 0 {
		conc = w.DefaultConcurrency
	}
	if conc <= 0 {
		conc = 1
	}
	if w.MaxConcurrency > 0 && conc > w.MaxConcurrency {
		conc = w.MaxConcurrency
	}

	inst, err := w.Setup(ctx, sc)
	if err != nil {
		return nil, fmt.Errorf("perf: setting up %q: %w", w.Name, err)
	}
	if inst.Cleanup != nil {
		defer inst.Cleanup() //nolint:errcheck — best-effort teardown
	}

	for i := 0; i < rc.WarmupOps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := inst.Op(ctx); err != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}

	var prof *profiler
	if rc.Profile != nil {
		prof = &profiler{cfg: *rc.Profile, workload: w.Name}
		if err := prof.start(); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	var deadline time.Time
	if rc.Duration > 0 {
		deadline = start.Add(rc.Duration)
	}
	var claimed int64 // op tickets; the first ticket always runs
	// Each worker owns a latency histogram (in ns), merged once the
	// workers are done. Errored ops only bump errs: a fast failure path
	// must not masquerade as a latency improvement.
	hists := make([]*obs.Histogram, conc)
	stageAggs := make([]map[string]*stageAcc, conc)
	var errs atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		lat := obs.NewHistogram(latencyBounds)
		hists[i] = lat
		var stages map[string]*stageAcc
		if rc.Stages {
			stages = map[string]*stageAcc{}
		}
		stageAggs[i] = stages
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				ticket := atomic.AddInt64(&claimed, 1)
				if rc.MaxOps > 0 && ticket > int64(rc.MaxOps) {
					return
				}
				// The deadline never cancels the very first op: every run
				// must measure something.
				if ticket > 1 && !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				opCtx := ctx
				var tr *obs.Trace
				if rc.Stages {
					opCtx, tr = obs.NewTrace(ctx, "", "op")
				}
				t0 := time.Now()
				err := inst.Op(opCtx)
				if err != nil && ctx.Err() != nil {
					return // cancellation, not an op failure
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					errs.Add(1)
					continue
				}
				lat.Observe(float64(time.Since(t0)))
				if tr != nil {
					tr.Finish()
					tr.Snapshot().EachSpan(func(name string, d time.Duration) {
						a := stages[name]
						if a == nil {
							a = &stageAcc{}
							stages[name] = a
						}
						a.total += d
						a.count++
					})
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := hists[0]
	for _, h := range hists[1:] {
		merged.Merge(h)
	}
	// Truncated to whole ns, like every other latency in a BENCH report.
	nsMs := func(ns float64) float64 { return ms(time.Duration(ns)) }
	var stages map[string]StageStat
	if rc.Stages {
		mergedStages := map[string]*stageAcc{}
		for _, m := range stageAggs {
			for name, a := range m {
				t := mergedStages[name]
				if t == nil {
					t = &stageAcc{}
					mergedStages[name] = t
				}
				t.total += a.total
				t.count += a.count
			}
		}
		if len(mergedStages) > 0 {
			stages = make(map[string]StageStat, len(mergedStages))
			for name, a := range mergedStages {
				stages[name] = StageStat{
					TotalMs: ms(a.total),
					Count:   a.count,
					MeanMs:  ms(a.total) / float64(a.count),
				}
			}
		}
	}

	res := &RunResult{
		Workload:    w.Name,
		Concurrency: conc,
		Ops:         int(merged.Count()),
		Errors:      int(errs.Load()),
		Cancelled:   ctx.Err() != nil,
		ElapsedMs:   ms(elapsed),
		P50Ms:       nsMs(merged.Quantile(0.50)),
		P95Ms:       nsMs(merged.Quantile(0.95)),
		P99Ms:       nsMs(merged.Quantile(0.99)),
		MinMs:       nsMs(merged.Min()),
		MeanMs:      nsMs(merged.Mean()),
		MaxMs:       nsMs(merged.Max()),
		Stages:      stages,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.OpsPerSec = float64(res.Ops) / sec
		if inst.RowsPerOp > 0 {
			res.RowsPerSec = float64(res.Ops*inst.RowsPerOp) / sec
		}
	}
	if inst.Metrics != nil {
		res.Metrics = inst.Metrics()
	}
	if prof != nil {
		refs, sum, perr := prof.stop()
		if perr != nil {
			return nil, perr
		}
		res.Profiles = refs
		res.Runtime = sum
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if res.Ops == 0 && res.Errors > 0 {
		return res, fmt.Errorf("perf: every op of %q failed: %w", w.Name, *firstErr.Load())
	}
	return res, nil
}

// Summary renders one run as a table row set (used by the CLI).
func (r *RunResult) Summary() string {
	return fmt.Sprintf("%-28s conc=%d ops=%d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms %.1f op/s",
		r.Workload, r.Concurrency, r.Ops, r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs, r.OpsPerSec)
}
