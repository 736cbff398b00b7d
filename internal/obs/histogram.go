package obs

import (
	"math"
	"runtime/metrics"
	"sort"
)

// Histogram is a fixed-bucket distribution with exact count, sum, min and
// max. Bucket i holds values in (bounds[i-1], bounds[i]]; a final +Inf
// bucket holds everything above the last bound. The unit is the caller's
// (the server observes seconds, the perf runner nanoseconds). It is NOT
// safe for concurrent use: callers lock around it or keep one per
// goroutine and Merge them afterwards.
type Histogram struct {
	bounds   []float64
	counts   []uint64 // len(bounds)+1; last is +Inf
	count    uint64
	sum      float64
	min, max float64 // valid when count > 0
}

// NewHistogram returns an empty histogram over the given ascending
// bucket upper bounds. The slice is retained, not copied.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// LogBounds returns bucket bounds log-spaced at perDecade per decade from
// lo up to and including hi (to within rounding), so every bucket spans
// the same ratio 10^(1/perDecade) and an interpolated quantile is off by
// at most that ratio.
func LogBounds(lo, hi float64, perDecade int) []float64 {
	var bounds []float64
	ratio := math.Pow(10, 1/float64(perDecade))
	for b := lo; b < hi*1.0000001; b *= ratio {
		bounds = append(bounds, b)
	}
	return bounds
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
}

// Merge folds o, which must share h's bounds, into h.
func (h *Histogram) Merge(o *Histogram) {
	if len(o.counts) != len(h.counts) {
		panic("obs: merging histograms with different bounds")
	}
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// Bounds returns the bucket upper bounds (without the +Inf bucket). The
// caller must not modify the slice.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Count returns the number of observed values.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observed value, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed value, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Cumulative returns the running bucket counts, one per bound plus the
// +Inf bucket last (which always equals Count), as Prometheus
// exposition wants them.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	cum := uint64(0)
	for i, c := range h.counts {
		cum += c
		out[i] = cum
	}
	return out
}

// Quantile returns the q-quantile, 0 when empty. It locates the bucket
// holding rank q·Count through the cumulative counts and interpolates
// linearly between that bucket's bounds, clamped to the observed
// [Min, Max]; a rank in the +Inf bucket, which has no upper bound to
// interpolate toward, returns Max. q ≤ 0 returns Min and q ≥ 1 Max.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			if i == len(h.bounds) {
				return h.max
			}
			lo := h.min
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := math.Min(h.bounds[i], h.max)
			// The outer Min absorbs the rounding of lo+(hi-lo) past hi.
			return math.Min(lo+(hi-lo)*((rank-cum)/float64(c)), hi)
		}
		cum = next
	}
	return h.max
}

// fromRuntime converts a cumulative runtime/metrics histogram into a
// Histogram: the delta cur−prev when prev is given with the same shape
// and that window saw events, else cur itself. Runtime buckets are
// [Buckets[i], Buckets[i+1]), so the upper edges become bounds and a
// trailing +Inf edge becomes the +Inf bucket. Individual values are not
// recorded: min and max are the outer edges of the outermost populated
// buckets (a −Inf edge reads as 0, a +Inf one as its finite lower edge)
// and the sum is left zero.
func fromRuntime(cur, prev *metrics.Float64Histogram) *Histogram {
	edges := cur.Buckets
	if len(cur.Counts) == 0 || len(edges) != len(cur.Counts)+1 {
		return NewHistogram(nil)
	}
	counts := cur.Counts
	if prev != nil && len(prev.Counts) == len(cur.Counts) {
		delta := make([]uint64, len(cur.Counts))
		total := uint64(0)
		for i, c := range cur.Counts {
			if p := prev.Counts[i]; c >= p {
				delta[i] = c - p
			}
			total += delta[i]
		}
		if total > 0 {
			counts = delta
		}
	}
	bounds := edges[1:]
	if math.IsInf(bounds[len(bounds)-1], 1) {
		bounds = bounds[:len(bounds)-1]
	}
	h := NewHistogram(bounds)
	first, last := -1, -1
	for i, c := range counts {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
		h.counts[i] = c
		h.count += c
	}
	if h.count == 0 {
		return h
	}
	finite := func(v float64) float64 {
		if math.IsInf(v, -1) {
			return 0
		}
		return v
	}
	h.min = finite(edges[first])
	h.max = finite(edges[last+1])
	if math.IsInf(h.max, 1) {
		h.max = finite(edges[last])
	}
	return h
}
