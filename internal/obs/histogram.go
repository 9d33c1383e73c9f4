package obs

// histogram.go is the latency-distribution half of the observability layer:
// a fixed-size, lock-free, HDR-style log-linear histogram. Mean and max
// cannot answer the question the serving tier is tuned against — "what
// does the p99 request see?" — so every span lands in a per-stage
// Histogram, which also keeps the stage's count, total and max, and GET
// /api/stats serves per-endpoint quantiles from it. cmd/speakql-loadgen reuses the same type client-side so
// server-reported and load-generator-measured distributions are bucketed
// identically.
//
// Bucketing: 2^histSubBits linear sub-buckets per power-of-two octave of
// nanoseconds (the classic HDR layout). Relative error of a reported
// quantile is bounded by one sub-bucket width — under 1/2^histSubBits
// (6.25%) of the value — across the full int64 nanosecond range, and the
// whole histogram is a flat array of atomics: Observe is one bit-scan and
// three atomic adds, no locks, no allocation.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubBits is the log2 of the linear sub-buckets per octave: 16
	// sub-buckets, bounding quantile error to <6.25% of the value.
	histSubBits = 4
	histSubMask = 1<<histSubBits - 1
	// histBuckets covers the identity range [0, 16) plus 60 octaves of 16
	// sub-buckets — every non-negative int64 nanosecond value has a bucket.
	histBuckets = (64-histSubBits)<<histSubBits + 1<<histSubBits
)

// Histogram is a fixed-size log-linear latency histogram, safe for
// concurrent use. The zero value is ready to observe into; it never
// allocates after that.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketIndex maps a non-negative nanosecond value to its bucket: identity
// below 2^histSubBits, then (octave, sub-bucket) above.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 1<<histSubBits {
		return int(u)
	}
	exp := uint(bits.Len64(u) - 1) // floor(log2), >= histSubBits
	sub := uint((u >> (exp - histSubBits)) & histSubMask)
	return int((exp-histSubBits+1)<<histSubBits | sub)
}

// bucketUpper is the inclusive upper bound of bucket idx — the value
// Quantile reports, so quantiles are conservative (never under-reported).
func bucketUpper(idx int) int64 {
	if idx < 1<<histSubBits {
		return int64(idx)
	}
	exp := uint(idx>>histSubBits) + histSubBits - 1
	sub := uint64(idx & histSubMask)
	lower := uint64(1)<<exp | sub<<(exp-histSubBits)
	return int64(lower + 1<<(exp-histSubBits) - 1)
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns how many observations have been recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-th quantile (q in [0, 1]) as the upper bound of
// the bucket holding that rank — conservative to within one sub-bucket
// width. Returns 0 on an empty histogram. Concurrent Observes are fine; the
// walk sees a monotone-consistent view.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// rank is 1-based: the ceil(q*total)-th smallest observation.
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			up := bucketUpper(i)
			// Never report past the true max (the last bucket's upper bound
			// can far exceed it).
			if m := h.max.Load(); up > m {
				up = m
			}
			return time.Duration(up)
		}
	}
	return h.Max()
}

// Merge folds other's observations into h bucket by bucket. Because both
// histograms share the same fixed bucketing, a merge is exact: h afterwards
// holds precisely the counts a single histogram would hold had it observed
// both streams, so fleet-wide quantiles computed after Merge carry the same
// ≤6.25% per-value error bound as any single histogram
// (TestHistogramMergeQuantileError). Safe under concurrent Observe on
// either side — the result is some monotone-consistent interleaving —
// though a point-in-time fleet view should merge quiescent snapshots.
// The router uses this to aggregate its per-replica latency histograms into
// the fleet-wide view its "router" stats block serves.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	v := other.max.Load()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// QuantileSummary is the fixed quantile set /api/stats and the loadgen
// report both serve.
type QuantileSummary struct {
	Count int64
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// Summary snapshots the standard quantile set in one walk-per-quantile
// pass (cheap: the histogram is a flat array).
func (h *Histogram) Summary() QuantileSummary {
	return QuantileSummary{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
		Mean:  h.Mean(),
	}
}
