package bench

import (
	"context"
	"testing"

	"f2/internal/core"
	"f2/internal/perf"
	"f2/internal/workload"
)

// benchmarkFlush measures one flush of a 50-row border-stable batch over
// a 2000-row synthetic base under the given strategy. CI runs these with
// -benchtime=1x as a smoke test so the amortization experiment cannot
// bit-rot.
func benchmarkFlush(b *testing.B, strategy core.UpdateStrategy) {
	tbl, err := workload.Generate(workload.NameSynthetic, 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := borderStableStream(tbl, 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u, _, err := core.NewUpdater(context.Background(), perf.Config(0.25), tbl)
		if err != nil {
			b.Fatal(err)
		}
		u.Strategy = strategy
		if err := u.Buffer(stream); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := u.Flush(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if strategy == core.UpdateIncremental && u.LastFlush != core.FlushModeIncremental {
			b.Fatalf("border-stable batch flushed via %q", u.LastFlush)
		}
		b.ReportMetric(float64(res.Report.ReencryptedRows), "reenc-rows/op")
		b.ReportMetric(float64(res.Report.UniquenessChecks), "uniq-checks/op")
	}
}

func BenchmarkFlushIncremental(b *testing.B) { benchmarkFlush(b, core.UpdateIncremental) }

func BenchmarkFlushRebuild(b *testing.B) { benchmarkFlush(b, core.UpdateRebuild) }

// BenchmarkUpdatesExperiment smoke-runs the full amortization experiment
// at tiny scale.
func BenchmarkUpdatesExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := RunUpdates(context.Background(), tinyOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) != 3 {
			b.Fatalf("unexpected experiment output: %+v", tables)
		}
	}
}
