package perf

import (
	"context"
	"fmt"
	"sort"
	"time"

	"f2/internal/core"
	"f2/internal/obs"
	"f2/internal/workload"
)

// TraceOverheadResult reports the in-process A/B comparison between the
// traced and untraced encrypt path. Cross-machine (or even cross-run)
// baseline diffs cannot resolve a 2% budget — scheduler noise alone is
// bigger — so the check interleaves traced and untraced ops in the SAME
// process and compares medians.
type TraceOverheadResult struct {
	Rounds      int     `json:"rounds"`
	Rows        int     `json:"rows"`
	BaseMs      float64 `json:"baseMs"`      // median untraced encrypt
	TracedMs    float64 `json:"tracedMs"`    // median traced encrypt
	OverheadPct float64 `json:"overheadPct"` // (traced-base)/base × 100
}

// Within reports whether the measured overhead is within the given
// percentage budget. A traced median faster than the untraced one
// (negative overhead, pure noise) passes trivially.
func (r TraceOverheadResult) Within(budgetPct float64) bool {
	return r.OverheadPct <= budgetPct
}

func (r TraceOverheadResult) String() string {
	return fmt.Sprintf("trace overhead: base=%.2fms traced=%.2fms overhead=%+.2f%% (%d rounds, %d rows)",
		r.BaseMs, r.TracedMs, r.OverheadPct, r.Rounds, r.Rows)
}

// TraceOverhead measures the cost of span instrumentation on the full
// encrypt pipeline: the base side is the production no-trace path (every
// obs.Start is a nil-check), the treated side runs with a live trace
// attached to the context. See encryptAB for the round structure.
func TraceOverhead(ctx context.Context, sc Scale, rounds int) (*TraceOverheadResult, error) {
	ab, err := encryptAB(ctx, sc, rounds, func(ctx context.Context, timed timedOp) (time.Duration, error) {
		opCtx, tr := obs.NewTrace(ctx, "", "overhead")
		defer tr.Finish()
		return timed(opCtx)
	})
	if err != nil {
		return nil, err
	}
	res := &TraceOverheadResult{
		Rounds:   ab.rounds,
		Rows:     ab.rows,
		BaseMs:   ab.baseMs,
		TracedMs: ab.treatedMs,
	}
	if ab.baseMs > 0 {
		res.OverheadPct = (ab.treatedMs - ab.baseMs) / ab.baseMs * 100
	}
	return res, nil
}

// timedOp runs one encrypt and returns how long the encrypt alone took.
type timedOp func(ctx context.Context) (time.Duration, error)

// abMedians is the outcome of one encryptAB comparison.
type abMedians struct {
	rounds, rows      int
	baseMs, treatedMs float64
}

// encryptAB is the one in-process A/B loop behind the overhead gates.
// Cross-run baselines cannot resolve a 2% budget, so both sides run in
// the same process on the same table: each round times one plain encrypt
// and one under treat (which wraps timed in whatever it measures and
// returns timed's duration), alternating which goes first so clock drift
// and thermal ramps cancel instead of biasing one side. Both sides are
// warmed once so first-touch costs (page faults, lazily built caches)
// land outside the measured rounds. rounds < 3 is raised to 3, and an
// even count made odd, so the medians are unambiguous.
func encryptAB(ctx context.Context, sc Scale, rounds int, treat func(context.Context, timedOp) (time.Duration, error)) (*abMedians, error) {
	if rounds < 3 {
		rounds = 3
	}
	if rounds%2 == 0 {
		rounds++
	}
	tbl, err := Dataset(workload.NameSynthetic, sc.Rows(encryptRows), sc.Seed)
	if err != nil {
		return nil, err
	}
	cfg := Config(0.25)
	cfg.Parallelism = sc.Parallelism
	var timed timedOp = func(ctx context.Context) (time.Duration, error) {
		t0 := time.Now()
		enc, err := core.NewEncryptor(cfg)
		if err != nil {
			return 0, err
		}
		_, err = enc.Encrypt(ctx, tbl)
		return time.Since(t0), err
	}
	treated := func(ctx context.Context) (time.Duration, error) { return treat(ctx, timed) }
	sides := [2]timedOp{timed, treated}
	for _, side := range sides {
		if _, err := side(ctx); err != nil { // warm-up, unrecorded
			return nil, err
		}
	}
	var samples [2][]float64
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for k := 0; k < 2; k++ {
			side := k ^ i%2 // odd rounds run the treated side first
			d, err := sides[side](ctx)
			if err != nil {
				return nil, err
			}
			samples[side] = append(samples[side], ms(d))
		}
	}
	return &abMedians{
		rounds:    rounds,
		rows:      tbl.NumRows(),
		baseMs:    median(samples[0]),
		treatedMs: median(samples[1]),
	}, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
