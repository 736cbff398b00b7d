// Package bench is the experiment harness: it regenerates every table and
// figure of the F² paper's evaluation (§5) at laptop scale. Each Run*
// function returns a rendered text table whose rows/series mirror what the
// paper plots; cmd/f2bench drives them and EXPERIMENTS.md records the
// measured outputs against the paper's.
//
// The table renderer, the deterministic benchmark key/config, and the
// memoized dataset generator live in internal/perf, so the paper harness,
// the testing.B benchmarks (bench_test.go), and the perf runner share one
// measurement path; PerfWorkloads bridges every experiment into the perf
// registry so `f2perf -run 'paper/*'` runs them under the same reporting
// pipeline.
package bench

import (
	"context"

	"f2/internal/core"
	"f2/internal/perf"
	"f2/internal/relation"
)

// Table is a rendered experiment result (shared renderer; see
// perf.Table).
type Table = perf.Table

// Options configures the harness scale. Zero value = default scale;
// Quick() shrinks everything for smoke runs.
type Options struct {
	// Seed for workload generation.
	Seed int64
	// Scale multiplies the default dataset sizes (1.0 = defaults).
	Scale float64
}

// Quick returns options for a fast smoke run (~seconds per experiment).
func Quick() Options { return Options{Seed: 1, Scale: 0.25} }

// Default returns the standard options.
func Default() Options { return Options{Seed: 1, Scale: 1.0} }

func (o Options) scale(n int) int {
	if o.Scale == 0 {
		o.Scale = 1
	}
	s := int(float64(n) * o.Scale)
	if s < 100 {
		s = 100
	}
	return s
}

// encrypt runs F² and returns the result, failing loudly on error.
func encrypt(ctx context.Context, tbl *relation.Table, cfg core.Config) (*core.Result, error) {
	enc, err := core.NewEncryptor(cfg)
	if err != nil {
		return nil, err
	}
	return enc.Encrypt(ctx, tbl)
}
