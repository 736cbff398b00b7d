// Command servebench is the repository's benchmark. It drives an
// in-process, store-backed f2served over loopback HTTP through one of
// three workloads, checks every answer the service gives, and prints its
// metrics: first as a table, then as one JSON line.
//
//	bash servebench/run.sh --workload outsource --seed 1 --seconds 25 --trace 0
//
// It measures the service only from outside — client-side timers and
// process CPU clocks around HTTP calls, before/after deltas of /metrics,
// the store's counters, runtime/metrics and getrusage — and imports only
// the layer packages (server, store, workload, fd, relation). See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// sizes are the workload input sizes. committed is what BENCHMARK.json
// runs; the self-test uses a tiny variant.
type sizes struct {
	// SetupRounds is how many times set-up runs; setup_s is the median.
	SetupRounds int

	// outsource: one customer table of OutsourceRows rows per cycle.
	OutsourceRows int

	// ingest: one synthetic table of IngestBaseRows rows per cycle, then
	// IngestBatches batches of IngestBatchRows rows, an explicit flush
	// after every IngestFlushEvery batches.
	IngestBaseRows, IngestBatches, IngestBatchRows, IngestFlushEvery int

	// reboot: RebootDatasets synthetic datasets of RebootRows rows, each with
	// a WAL tail of RebootTailBatches batches of RebootTailRows rows.
	RebootDatasets, RebootRows, RebootTailBatches, RebootTailRows int
}

var committed = sizes{
	SetupRounds:   5,
	OutsourceRows: 1000,

	IngestBaseRows: 4000, IngestBatches: 128, IngestBatchRows: 32, IngestFlushEvery: 4,

	RebootDatasets: 4, RebootRows: 8000, RebootTailBatches: 8, RebootTailRows: 16,
}

// workloadSpec is one traffic mix. op and followup name the sample sets
// behind op_cpu_ms and followup_cpu_ms.
type workloadSpec struct {
	name         string
	op, followup string
	run          func(context.Context, *bench) error
}

var workloads = []workloadSpec{
	{name: "outsource", op: "create", followup: "fds", run: runOutsource},
	{name: "ingest", op: "ingest", followup: "flush", run: runIngest},
	{name: "reboot", op: "ready", followup: "first_decrypt", run: runReboot},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// bench is one run's configuration and everything it measured.
type bench struct {
	sz      sizes
	seed    int64
	window  time.Duration
	traced  bool
	workdir string
	spans   *spanLog // non-nil in traced runs

	mu       sync.Mutex
	ops      int
	failed   int
	failMsgs []string
	invalid  []string             // reasons the whole run cannot stand
	samples  map[string][]float64 // latencies in ms, by sample-set name
	cpu      map[string][]float64 // process CPU ms per operation, by sample-set name
	// perCycle holds, by sample-set name, the mean CPU ms of the set's
	// operations in each cycle; cycleStart is where the open cycle's
	// operations begin in cpu.
	perCycle   map[string][]float64
	cycleStart map[string]int
	values     map[string]float64 // ratios measured once per run

	// Wall-clock and process CPU seconds of each set-up round.
	setupSecs, setupCPU []float64

	// Traced runs alternate traced and plain operations of the workload's
	// main request; the two latency sets give the tracing overhead.
	tracedOp, plainOp []float64

	// Per-layer inputs, all covering the measured window.
	layers    layerAcc
	proc0     procStats
	proc1     procStats
	rows      float64 // plaintext rows the window handled
	userBytes float64 // plaintext cell bytes the window wrote
}

func newBench(sz sizes, seed int64, window time.Duration, traced bool, workdir string) *bench {
	b := &bench{
		sz: sz, seed: seed, window: window, traced: traced, workdir: workdir,
		samples:    map[string][]float64{},
		cpu:        map[string][]float64{},
		perCycle:   map[string][]float64{},
		cycleStart: map[string]int{},
		values:     map[string]float64{},
		layers:     newLayerAcc(),
	}
	if traced {
		b.spans = &spanLog{t0: time.Now()}
	}
	return b
}

// op counts one attempted operation and, when err is non-nil, one failed
// one. It reports whether the operation succeeded.
func (b *bench) op(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failMsgs) < 10 {
		b.failMsgs = append(b.failMsgs, err.Error())
	}
	return false
}

// sample records one operation's latency and the process CPU time it
// used.
func (b *bench) sample(name string, d, cpu time.Duration) {
	b.mu.Lock()
	b.samples[name] = append(b.samples[name], ms(d))
	b.cpu[name] = append(b.cpu[name], ms(cpu))
	b.mu.Unlock()
}

// mainOp records a latency of the workload's main request into the
// traced or plain set, for the tracing overhead.
func (b *bench) mainOp(traced bool, d time.Duration) {
	if !b.traced {
		return
	}
	b.mu.Lock()
	if traced {
		b.tracedOp = append(b.tracedOp, ms(d))
	} else {
		b.plainOp = append(b.plainOp, ms(d))
	}
	b.mu.Unlock()
}

// endCycle closes one cycle of the workload's loop: the mean CPU time of
// each kind of operation within the cycle becomes one per-cycle sample.
// Every cycle sends the same requests, so a cycle mean is one sample of
// the cost of that kind's whole mix — for flushes, cheap incremental ones
// and expensive rebuilds together — where a median over single flushes
// jumps between the clusters the two kinds form.
func (b *bench) endCycle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, xs := range b.cpu {
		if i := b.cycleStart[name]; i < len(xs) {
			b.perCycle[name] = append(b.perCycle[name], mean(xs[i:]))
			b.cycleStart[name] = len(xs)
		}
	}
}

// setupRounds runs one set-up round sz.SetupRounds times and records each
// round's duration. Every round but the last is torn down again; the
// last round's state is what the workload then measures.
func (b *bench) setupRounds(round func() (teardown func() error, err error)) error {
	for i := 0; i < b.sz.SetupRounds; i++ {
		start, cpu0 := time.Now(), processCPU()
		teardown, err := round()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setupSecs = append(b.setupSecs, time.Since(start).Seconds())
		b.setupCPU = append(b.setupCPU, (processCPU() - cpu0).Seconds())
		if i < b.sz.SetupRounds-1 {
			if err := teardown(); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	return nil
}

// freshDir makes an empty data directory under the work directory.
func (b *bench) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(b.workdir, prefix+"-")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd assembles the end-to-end metrics. Every workload reports
// every one of them; op and followup name the workload's own requests.
func (b *bench) endToEnd(w workloadSpec) map[string]metric {
	return map[string]metric{
		"setup_s":                  {quantile(b.setupCPU, 0.5), "s"},
		"op_cpu_ms":                {quantile(b.cpu[w.op], 0.5), "ms"},
		"followup_cpu_ms":          {quantile(b.perCycle[w.followup], 0.5), "ms"},
		"decrypt_cpu_ms":           {quantile(b.cpu["decrypt"], 0.5), "ms"},
		"expansion":                {b.values["expansion"], "ratio"},
		"disk_bytes_per_user_byte": {b.values["disk_bytes_per_user_byte"], "ratio"},
	}
}

func (b *bench) result(w workloadSpec) result {
	metrics := b.perLayer()
	if !b.traced {
		metrics = b.endToEnd(w)
	}
	correct := b.failed == 0 && len(b.invalid) == 0
	for name, m := range metrics {
		// A metric with no samples behind it cannot be reported (JSON
		// has no NaN); the run is then not a valid measurement.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			metrics[name] = m
			correct = false
		}
	}
	return result{Correct: correct, Attempted: b.ops, Failed: b.failed, Metrics: metrics}
}

// printTable writes every sample set and value under the names the
// README uses, with sample counts and the percentiles the counts
// support (at least ten samples beyond the percentile).
func (b *bench) printTable(out io.Writer, w workloadSpec) {
	fmt.Fprintf(out, "workload %s  seed %d  window %s  traced %v\n", w.name, b.seed, b.window, b.traced)
	fmt.Fprintf(out, "  %-28s %12.4f s    (median of %d rounds)\n", "setup_wall_s", quantile(b.setupSecs, 0.5), len(b.setupSecs))
	fmt.Fprintf(out, "  %-28s %12.4f s    (median of %d rounds)\n", "setup_cpu_s", quantile(b.setupCPU, 0.5), len(b.setupCPU))
	names := make([]string, 0, len(b.samples))
	for n := range b.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := b.samples[n]
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if q > 0.5 && float64(len(xs))*(1-q) < 10 {
				continue
			}
			fmt.Fprintf(out, "  %-28s %12.4f ms   (n=%d)\n", fmt.Sprintf("%s_p%g_ms", n, q*100), quantile(xs, q), len(xs))
		}
		if cs := b.cpu[n]; len(cs) > 0 {
			fmt.Fprintf(out, "  %-28s %12.4f ms   (n=%d)\n", n+"_cpu_p50_ms", quantile(cs, 0.5), len(cs))
			cs = b.perCycle[n]
			fmt.Fprintf(out, "  %-28s %12.4f ms   (median of %d cycle means)\n", n+"_cpu_cycle_ms", quantile(cs, 0.5), len(cs))
		}
	}
	vnames := make([]string, 0, len(b.values))
	for n := range b.values {
		vnames = append(vnames, n)
	}
	sort.Strings(vnames)
	for _, n := range vnames {
		fmt.Fprintf(out, "  %-28s %12.4f ratio\n", n, b.values[n])
	}
	if b.traced {
		lm := b.perLayer()
		lnames := make([]string, 0, len(lm))
		for n := range lm {
			lnames = append(lnames, n)
		}
		sort.Strings(lnames)
		for _, n := range lnames {
			fmt.Fprintf(out, "  %-36s %12.4f %s\n", n, lm[n].Value, lm[n].Unit)
		}
	}
	if all := b.proc1.allTicks - b.proc0.allTicks; all > 0 {
		// Time the hypervisor gave to other machines inflates every
		// latency; a run with much of it is not comparable to one without.
		fmt.Fprintf(out, "  host steal during the window: %.1f%% of CPU time\n",
			100*float64(b.proc1.stealTicks-b.proc0.stealTicks)/float64(all))
	}
	if cpu := b.proc1.cpu - b.proc0.cpu; cpu > 0 {
		fmt.Fprintf(out, "  process CPU during the window: %.1f%% in the kernel, %d minor page faults\n",
			100*float64(b.proc1.sys-b.proc0.sys)/float64(cpu), b.proc1.faults-b.proc0.faults)
	}
	fmt.Fprintf(out, "  ops %d  failed %d\n", b.ops, b.failed)
	for _, m := range b.failMsgs {
		fmt.Fprintf(out, "  failure: %s\n", m)
	}
	for _, m := range b.invalid {
		fmt.Fprintf(out, "  invalid run: %s\n", m)
	}
}

func main() {
	// The service runs on one processor. Its operations then cost the same
	// CPU time however many other threads the host runs: with two, a
	// closed-loop operation also pays for the second processor's idle
	// spinning and parallel overheads, whose share depends on what else
	// runs. See README.md for why the gated figures are CPU time.
	runtime.GOMAXPROCS(1)
	var (
		name    = flag.String("workload", "", "workload: outsource, ingest or reboot")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 25, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: report end-to-end metrics; 1: traced run, report per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/servebench", "directory for data directories and span dumps")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench --workload outsource|ingest|reboot --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its table and result line.
func run(w workloadSpec, seed int64, window time.Duration, traced bool, workdir string) error {
	b, err := measure(w, committed, seed, window, traced, workdir)
	if err != nil {
		return err
	}
	b.printTable(os.Stdout, w)
	line, err := json.Marshal(b.result(w))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs workload w at sizes sz. Its data directories live in a
// fresh directory under workdir, removed afterwards; a traced run leaves
// its span dump in workdir.
func measure(w workloadSpec, sz sizes, seed int64, window time.Duration, traced bool, workdir string) (*bench, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	b := newBench(sz, seed, window, traced, dir)
	err = w.run(context.Background(), b)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err == nil && traced {
		err = b.spans.write(filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed)))
	}
	return b, err
}

// call issues one request as one counted operation. check, when non-nil,
// validates the answer; a failed check fails the operation. The latency
// of a successful operation is recorded under sample, when one is named.
// A non-nil log also records the request as a client span, with the
// service's span tree when the answer carries one.
func (b *bench) call(ctx context.Context, c *client, log *spanLog, trace, sample, method, path string, body []byte, check func([]byte) error) (time.Duration, bool) {
	start, cpu0 := time.Now(), processCPU()
	data, d, err := c.do(ctx, method, path, body)
	cpu := processCPU() - cpu0
	if err == nil && check != nil {
		err = check(data)
	}
	if !b.op(err) {
		return d, false
	}
	if sample != "" {
		b.sample(sample, d, cpu)
	}
	if log != nil {
		log.add(trace, sample, start, d, serverTrace(data))
	}
	return d, true
}

// serverTrace extracts the service's span tree from an answer to a
// request made with ?trace=1; nil when the answer carries none.
func serverTrace(body []byte) json.RawMessage {
	var ans struct {
		Trace json.RawMessage `json:"trace"`
	}
	if json.Unmarshal(body, &ans) != nil {
		return nil
	}
	return ans.Trace
}

// spanOrigin is the span log's time origin in Unix nanoseconds (0 in an
// untraced run).
func (b *bench) spanOrigin() int64 {
	if b.spans == nil {
		return 0
	}
	return b.spans.t0.UnixNano()
}

// traceLog returns the span log when operation i of a traced run is one
// of the traced half, nil otherwise.
func (b *bench) traceLog(i int) *spanLog {
	if b.traced && i%2 == 0 {
		return b.spans
	}
	return nil
}

// traced adds trace=1 to a request path when log is non-nil, asking the
// service for the request's span tree.
func traced(path string, log *spanLog) string {
	switch {
	case log == nil:
		return path
	case strings.Contains(path, "?"):
		return path + "&trace=1"
	default:
		return path + "?trace=1"
	}
}

// scrapeLayers reads the per-layer counters of a traced run: /metrics and
// the store's counters. Untraced runs skip it and return zero values.
func (b *bench) scrapeLayers(ctx context.Context, c *client, in *instance) (promSnapshot, storeStats, error) {
	if !b.traced {
		return nil, storeStats{}, nil
	}
	p, err := c.scrape(ctx)
	return p, in.storeStats(), err
}
