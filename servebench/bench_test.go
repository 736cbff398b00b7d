package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"f2/internal/workload"
)

// tiny keeps every workload's shape at a fraction of the committed size.
var tiny = sizes{
	SetupRounds:   2,
	OutsourceRows: 60,

	IngestBaseRows: 200, IngestBatches: 10, IngestBatchRows: 4, IngestFlushEvery: 4,

	RebootDatasets: 2, RebootRows: 300, RebootTailBatches: 2, RebootTailRows: 4,
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEveryMetricEmitted runs every workload at tiny scale, untraced and
// traced, and checks that the run is correct and reports exactly the
// metrics BENCHMARK.json names, each finite and with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, fw := range f.Workloads {
		w, ok := findWorkload(fw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", fw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range f.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			b, err := measure(w, tiny, 3, time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := b.result(w)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, b.failMsgs, b.invalid)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptedExpectationFailsDecryptCheck runs one outsource cycle
// against an expected table with one altered cell: the decrypt check must
// fail every decrypt of the cycle and with them the run, while the same
// cycle against the true table passes.
func TestCorruptedExpectationFailsDecryptCheck(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	in, err := startInstance(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := in.close(); err != nil {
			t.Error(err)
		}
	}()
	c := newClient(in.base)
	defer c.close()

	tbl := workload.Customer(tiny.OutsourceRows, 5)
	rows := tableRows(tbl)
	body, err := json.Marshal(createRequest{Name: "customer", Columns: tbl.Schema().Names(), Rows: rows, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	fds, err := witnessedFDs(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	inp := outsourceInput{body: body, columns: tbl.Schema().Names(), want: multiset(rows), wantFDs: fds,
		rows: len(rows), userBytes: cellBytes(rows)}

	for _, corrupt := range []bool{false, true} {
		if corrupt {
			bad := make([][]string, len(rows))
			copy(bad, rows)
			bad[0] = append([]string(nil), rows[0]...)
			bad[0][1] += "-corrupted"
			inp.want = multiset(bad)
		}
		b := newBench(tiny, 5, time.Second, false, dir)
		if _, _, err := b.outsourceCycle(ctx, c, dir, &inp, 0); err != nil {
			t.Fatal(err)
		}
		res := b.result(workloads[0])
		if corrupt && (b.failed != decryptsPerCycle || res.Correct) {
			t.Errorf("corrupted expectation: %d failed ops, correct=%v; want %d failed decrypts and an incorrect run",
				b.failed, res.Correct, decryptsPerCycle)
		}
		if !corrupt && b.failed != 0 {
			t.Errorf("true expectation: %d failed ops: %v", b.failed, b.failMsgs)
		}
	}
}

// TestQuantileExact pins quantile against hand-sorted samples.
func TestQuantileExact(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.25, 3}, {0.9, 8.2}, {1, 9}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}
