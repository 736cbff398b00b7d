package obs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime/metrics"
	"sort"
	"testing"
)

// Bucket layouts of the three users: the server's request-latency and
// stage histograms (seconds) and the perf runner's per-op histogram (ns).
var (
	serverLatencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}
	serverStageBounds   = []float64{5e-6, 25e-6, 100e-6, 500e-6, 2500e-6, 0.01, 0.05, 0.25, 1, 5, 20}
	perfBounds          = LogBounds(1e3, 1e12, 10)
)

type quantileWant struct{ q, v float64 }

// histCase is one row of the quantile table: a histogram fed values —
// split across shards and merged when there is more than one shard — or
// converted from a runtime/metrics window (cur, prev), and the quantiles
// it must report to within relTol (relative; 0 means exact).
type histCase struct {
	name      string
	bounds    []float64
	shards    [][]float64
	cur, prev *metrics.Float64Histogram
	want      []quantileWant
	relTol    float64
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func concat(parts ...[]float64) []float64 {
	var out []float64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// exactSortCase draws 5000 ns latencies and expects every quantile within
// one bucket ratio (10^0.1 ≈ 1.26, so 30% leaves margin for the rank
// convention) of the exact ⌈q·n⌉-th smallest sample.
func exactSortCase(name string, gen func(r *rand.Rand) float64) histCase {
	r := rand.New(rand.NewSource(42))
	values := make([]float64, 5000)
	for i := range values {
		values[i] = gen(r)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	c := histCase{name: name, bounds: perfBounds, shards: [][]float64{values}, relTol: 0.30}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		c.want = append(c.want, quantileWant{q, sorted[idx]})
	}
	return c
}

// mergeCase shards 3000 random ns latencies across three histograms; the
// table checks the merge against one histogram fed everything.
func mergeCase() histCase {
	r := rand.New(rand.NewSource(7))
	shards := make([][]float64, 3)
	for i := 0; i < 3000; i++ {
		shards[i%3] = append(shards[i%3], float64(1e3+r.Int63n(1e9)))
	}
	return histCase{name: "perf-merge-equivalence", bounds: perfBounds, shards: shards}
}

func histCases() []histCase {
	return []histCase{
		{name: "empty", bounds: perfBounds, shards: [][]float64{nil},
			want: []quantileWant{{0, 0}, {0.5, 0}, {1, 0}}},
		// Request latencies: 8 × 500µs in (0, 1ms], 2 × 2ms in (1ms, 5ms];
		// min 0.5ms, max 2ms. Rank r = q·10. (The same observations back
		// the server's rendered-gauge test.)
		{name: "server-interpolation-exact", bounds: serverLatencyBounds,
			shards: [][]float64{concat(repeat(0.0005, 8), repeat(0.002, 2))},
			relTol: 1e-12,
			want: []quantileWant{
				{0.50, 0.0008125}, // r=5, bucket 0 clamped to [0.5ms, 1ms]: 0.5ms + 0.5ms·5/8
				{0.80, 0.001},     // r=8 fills bucket 0: its upper bound
				{0.95, 0.00175},   // r=9.5, bucket 1 clamped to [1ms, 2ms]: 1ms + 1ms·1.5/2
				{0.99, 0.00195},   // r=9.9: 1ms + 1ms·1.9/2
			}},
		// Stage durations: 8 × 3µs in (0, 5µs], 2 × 10µs in (5µs, 25µs];
		// min 3µs, max 10µs.
		{name: "server-stage-sub-hundred-micros", bounds: serverStageBounds,
			shards: [][]float64{concat(repeat(3e-6, 8), repeat(10e-6, 2))},
			relTol: 1e-12,
			want: []quantileWant{
				{0.50, 4.25e-6}, // r=5, bucket 0 clamped to [3µs, 5µs]: 3µs + 2µs·5/8
				{0.80, 5e-6},    // r=8 fills bucket 0: its upper bound
				{0.95, 8.75e-6}, // r=9.5, bucket 1 clamped to [5µs, 10µs]: 5µs + 5µs·1.5/2
				{0.99, 9.75e-6}, // r=9.9: 5µs + 5µs·1.9/2
			}},
		// A rank in the +Inf bucket has no upper bound to interpolate
		// toward: it reports the exact observed max.
		{name: "server-overflow-bucket-uses-max", bounds: serverLatencyBounds,
			shards: [][]float64{{0.001, 42}}, want: []quantileWant{{0.99, 42}}},
		// Runtime histograms: [0,1) ×2, [1,2) ×6, [2,4) ×2.
		{name: "runtime-hist-quantile",
			cur:    &metrics.Float64Histogram{Counts: []uint64{2, 6, 2}, Buckets: []float64{0, 1, 2, 4}},
			relTol: 1e-9,
			want: []quantileWant{
				{0.2, 1},     // rank 2 = top of bucket 0
				{0.5, 1.5},   // rank 5: 3 of 6 into [1,2)
				{0.8, 2},     // rank 8 = top of bucket 1
				{1.0, 4},     // rank 10 = top of bucket 2
				{0.05, 0.25}, // rank 0.5: a quarter into [0,1)
			}},
		// A −Inf lower edge reads as 0; a rank in the +Inf bucket clamps
		// to its finite lower edge.
		{name: "runtime-infinite-edges",
			cur:  &metrics.Float64Histogram{Counts: []uint64{1, 1}, Buckets: []float64{math.Inf(-1), 1, math.Inf(1)}},
			want: []quantileWant{{0.25, 0.5}, {1.0, 1}}},
		{name: "runtime-infinite-edges-empty",
			cur:  &metrics.Float64Histogram{Counts: []uint64{0, 0}, Buckets: []float64{math.Inf(-1), 1, math.Inf(1)}},
			want: []quantileWant{{0.5, 0}}},
		// All 4 window events are in [1,2), so even p50 sits inside it.
		{name: "runtime-window-uses-delta",
			cur:  &metrics.Float64Histogram{Counts: []uint64{10, 4}, Buckets: []float64{0, 1, 2}},
			prev: &metrics.Float64Histogram{Counts: []uint64{10, 0}, Buckets: []float64{0, 1, 2}},
			want: []quantileWant{{0.5, 1.5}, {0.9, 1.9}, {0.99, 1.99}}, relTol: 1e-9},
		// No events in the window: the cumulative distribution, rank 7 of
		// 14 seven-tenths into [0,1).
		{name: "runtime-window-cumulative-fallback",
			cur:  &metrics.Float64Histogram{Counts: []uint64{10, 4}, Buckets: []float64{0, 1, 2}},
			prev: &metrics.Float64Histogram{Counts: []uint64{10, 4}, Buckets: []float64{0, 1, 2}},
			want: []quantileWant{{0.5, 0.7}}, relTol: 1e-9},
		exactSortCase("perf-exact-sort-uniform-1ms-100ms", func(r *rand.Rand) float64 {
			return float64(1e6 + r.Int63n(99e6))
		}),
		exactSortCase("perf-exact-sort-lognormal", func(r *rand.Rand) float64 {
			return math.Trunc(math.Exp(r.NormFloat64()*1.5+13)) + 1e3
		}),
		exactSortCase("perf-exact-sort-bimodal-fast-slow", func(r *rand.Rand) float64 {
			if r.Intn(10) == 0 {
				return float64(200e6 + r.Int63n(50e6)) // slow tail
			}
			return float64(50e3 + r.Int63n(100e3))
		}),
		mergeCase(),
	}
}

func TestHistogramQuantile(t *testing.T) {
	for _, c := range histCases() {
		t.Run(c.name, func(t *testing.T) {
			var h *Histogram
			if c.cur != nil {
				h = fromRuntime(c.cur, c.prev)
			} else {
				h = NewHistogram(c.bounds)
				single := NewHistogram(c.bounds)
				var all []float64
				for _, shard := range c.shards {
					s := NewHistogram(c.bounds)
					for _, v := range shard {
						s.Observe(v)
						single.Observe(v)
					}
					h.Merge(s)
					all = append(all, shard...)
				}
				checkSameHistogram(t, h, single)
				checkExactStats(t, h, all)
			}
			for _, w := range c.want {
				got := h.Quantile(w.q)
				if math.Abs(got-w.v) > c.relTol*math.Abs(w.v) {
					t.Errorf("Quantile(%v) = %v, want %v (rel tol %v)", w.q, got, w.v, c.relTol)
				}
			}
		})
	}
}

// checkExactStats: count, min, max and mean are exact, not bucketed.
func checkExactStats(t *testing.T, h *Histogram, values []float64) {
	t.Helper()
	var lo, hi, sum float64
	for i, v := range values {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
		sum += v
	}
	mean := 0.0
	if len(values) > 0 {
		mean = sum / float64(len(values))
	}
	if h.Count() != uint64(len(values)) || h.Min() != lo || h.Max() != hi {
		t.Errorf("count/min/max = %d/%v/%v, want %d/%v/%v", h.Count(), h.Min(), h.Max(), len(values), lo, hi)
	}
	if math.Abs(h.Mean()-mean) > 1e-9*math.Abs(mean) {
		t.Errorf("mean = %v, want %v", h.Mean(), mean)
	}
}

// checkSameHistogram: a merge of shards reports what one histogram fed
// everything reports. The sum is compared to within float reassociation.
func checkSameHistogram(t testing.TB, merged, single *Histogram) {
	t.Helper()
	if merged.Count() != single.Count() || merged.Min() != single.Min() || merged.Max() != single.Max() {
		t.Fatalf("merged count/min/max = %d/%v/%v, single %d/%v/%v",
			merged.Count(), merged.Min(), merged.Max(), single.Count(), single.Min(), single.Max())
	}
	if d := math.Abs(merged.Sum() - single.Sum()); d > 1e-9*math.Max(math.Abs(single.Sum()), 1) {
		t.Fatalf("merged sum %v, single %v", merged.Sum(), single.Sum())
	}
	for i := 0; i <= 64; i++ {
		q := float64(i) / 64
		if a, b := merged.Quantile(q), single.Quantile(q); a != b {
			t.Fatalf("Quantile(%v): merged %v, single %v", q, a, b)
		}
	}
}

// decodeFloats reads little-endian float64s, keeping only finite values
// of magnitude ≤ 1e15 (beyond any latency, in any unit) so bucket-width
// arithmetic cannot overflow.
func decodeFloats(b []byte) []float64 {
	var out []float64
	for ; len(b) >= 8; b = b[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if !math.IsNaN(v) && math.Abs(v) <= 1e15 {
			out = append(out, v)
		}
	}
	return out
}

func encodeFloats(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzHistogram feeds random bounds and values, sharded and merged, and
// checks the invariants every caller relies on: quantiles stay inside
// [Min, Max] and never decrease in q, merging equals feeding one
// histogram, and the cumulative counts end at Count.
func FuzzHistogram(f *testing.F) {
	f.Add(encodeFloats(0.001, 0.005, 0.025), encodeFloats(0.0005, 0.0005, 0.002, 42), uint8(2))
	f.Add(encodeFloats(1, 2, 4), encodeFloats(0.1, 1, 1, 1.5, 3.9, 4), uint8(1))
	f.Add(encodeFloats(), encodeFloats(-3, 7), uint8(3))
	f.Add(encodeFloats(1e3, 1e6, 1e9), encodeFloats(), uint8(0))
	// lo+(hi−lo) rounds one ulp past hi here (min < 0 < hi), which the
	// next bucket's first quantile would undercut without the clamp.
	b0 := 0.20351767344285732
	b1 := math.Nextafter(b0, 1)
	f.Add(encodeFloats(b0, b1), encodeFloats(-0.1535766424039545, b0, b1, b1), uint8(1))
	f.Fuzz(func(t *testing.T, rawBounds, rawValues []byte, nShards uint8) {
		bounds := decodeFloats(rawBounds)
		sort.Float64s(bounds)
		bounds = dedup(bounds)
		values := decodeFloats(rawValues)
		shards := make([]*Histogram, 1+int(nShards)%4)
		for i := range shards {
			shards[i] = NewHistogram(bounds)
		}
		single := NewHistogram(bounds)
		for i, v := range values {
			shards[i%len(shards)].Observe(v)
			single.Observe(v)
		}
		merged := NewHistogram(bounds)
		for _, s := range shards {
			merged.Merge(s)
		}
		checkSameHistogram(t, merged, single)
		cum := merged.Cumulative()
		if last := cum[len(cum)-1]; last != merged.Count() {
			t.Fatalf("final cumulative count %d != Count %d", last, merged.Count())
		}
		prev := math.Inf(-1)
		for i := 0; i <= 64; i++ {
			q := float64(i) / 64
			v := merged.Quantile(q)
			if v < merged.Min() || v > merged.Max() {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, merged.Min(), merged.Max())
			}
			if v < prev {
				t.Fatalf("Quantile(%v) = %v < Quantile at smaller q %v", q, v, prev)
			}
			prev = v
		}
	})
}

func dedup(sorted []float64) []float64 {
	var out []float64
	for _, v := range sorted {
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
