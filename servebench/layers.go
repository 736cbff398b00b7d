package main

import (
	"strings"
)

// layerAcc sums before/after deltas of the service's own counters over
// the measured window. The reboot workload boots many servers, so its
// deltas are summed across them.
type layerAcc struct {
	prom  map[string]float64 // /metrics series deltas
	store storeStats         // store counter deltas
}

func newLayerAcc() layerAcc { return layerAcc{prom: map[string]float64{}} }

func (a *layerAcc) add(before, after promSnapshot, sb, sa storeStats) {
	for k, v := range after {
		a.prom[k] += v - before[k]
	}
	a.store.snap.ChunksWritten += sa.snap.ChunksWritten - sb.snap.ChunksWritten
	a.store.snap.ChunksReused += sa.snap.ChunksReused - sb.snap.ChunksReused
	a.store.snap.BytesWritten += sa.snap.BytesWritten - sb.snap.BytesWritten
	a.store.snap.BytesReused += sa.snap.BytesReused - sb.snap.BytesReused
}

// stageMs is the mean duration in ms of one pipeline stage over the
// window (delta of sum ÷ delta of count), 0 when the stage did not run.
func (a *layerAcc) stageMs(stage string) float64 {
	return meanMs(a.prom[`f2_stage_duration_seconds_sum{stage="`+stage+`"}`],
		a.prom[`f2_stage_duration_seconds_count{stage="`+stage+`"}`])
}

// httpMs is the server-side mean latency in ms of one HTTP operation.
func (a *layerAcc) httpMs(op string) float64 {
	return meanMs(a.prom[`f2_http_request_duration_seconds_sum{op="`+op+`"}`],
		a.prom[`f2_http_request_duration_seconds_count{op="`+op+`"}`])
}

func (a *layerAcc) flushes(mode string) float64 {
	return a.prom[`f2_flushes_total{mode="`+mode+`"}`]
}

// stageSumSeconds adds up the time of every stage whose name starts with
// prefix.
func (a *layerAcc) stageSumSeconds(prefix string) float64 {
	const pre = `f2_stage_duration_seconds_sum{stage="`
	total := 0.0
	for k, v := range a.prom {
		if strings.HasPrefix(k, pre+prefix) {
			total += v
		}
	}
	return total
}

func meanMs(sumSeconds, count float64) float64 {
	if count <= 0 {
		return 0
	}
	return sumSeconds / count * 1000
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct {
	name, unit, better string
	value              func(b *bench) float64
}

// layerMetrics are the per-layer metrics of a traced run. A layer the
// workload does not exercise reads 0.
var layerMetrics = []layerMetric{
	{"server.append_ms", "ms", "lower", func(b *bench) float64 { return b.layers.httpMs("append_rows") }},
	{"server.create_ms", "ms", "lower", func(b *bench) float64 { return b.layers.httpMs("create_dataset") }},
	{"server.job_queue_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("job.queue") }},
	{"store.wal_fsync_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("wal.fsync") }},
	{"store.snapshot_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("snapshot.save") }},
	{"store.snapshot_bytes_per_user_byte", "ratio", "lower", func(b *bench) float64 {
		return ratio(float64(b.layers.store.snap.BytesWritten), b.userBytes)
	}},
	{"store.chunk_reuse_ratio", "ratio", "higher", func(b *bench) float64 {
		s := b.layers.store.snap
		return ratio(float64(s.ChunksReused), float64(s.ChunksWritten+s.ChunksReused))
	}},
	{"store.hydrate_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("snapshot.hydrate") }},
	{"core.step1_mas_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("encrypt.step1.mas") }},
	{"core.step2_group_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("encrypt.step2.group") }},
	// The emit.shard spans nest inside this stage; its own span already
	// covers them.
	{"core.step3_emit_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("encrypt.step3.emit") }},
	{"core.step4_fp_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("encrypt.step4.fp") }},
	{"core.flush_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("update.flush") }},
	{"core.rebuild_ratio", "ratio", "lower", func(b *bench) float64 {
		reb := b.layers.flushes("rebuild")
		return ratio(reb, reb+b.layers.flushes("incremental"))
	}},
	{"core.incremental_ms", "ms", "lower", func(b *bench) float64 {
		return meanMs(b.layers.stageSumSeconds("incremental."), b.layers.flushes("incremental"))
	}},
	{"mas.border_maintain_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("incremental.border-maintain") }},
	{"core.decrypt_ms", "ms", "lower", func(b *bench) float64 { return b.layers.stageMs("decrypt.table") }},
	{"fd.discover_ms", "ms", "lower", func(b *bench) float64 { return b.layers.httpMs("discover_fds") }},
	{"runtime.alloc_bytes_per_row", "B", "lower", func(b *bench) float64 {
		return ratio(float64(b.proc1.allocs-b.proc0.allocs), b.rows)
	}},
	{"runtime.gc_cycles", "count", "lower", func(b *bench) float64 { return float64(b.proc1.gcCycles - b.proc0.gcCycles) }},
	{"runtime.cpu_util", "cores", "lower", func(b *bench) float64 {
		return ratio(b.proc1.cpu.Seconds()-b.proc0.cpu.Seconds(), b.proc1.at.Sub(b.proc0.at).Seconds())
	}},
	{"trace.overhead_pct", "%", "lower", func(b *bench) float64 {
		if len(b.tracedOp) == 0 || len(b.plainOp) == 0 {
			return 0
		}
		return (quantile(b.tracedOp, 0.5)/quantile(b.plainOp, 0.5) - 1) * 100
	}},
}

func (b *bench) perLayer() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{m.value(b), m.unit}
	}
	return out
}
