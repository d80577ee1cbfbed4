package metrics

import (
	"math/bits"
	randv2 "math/rand/v2"
	"sync/atomic"
	"time"
)

// Log-linear bucket layout shared by Histogram and HistogramSnapshot.
//
// Values are nanoseconds. The first histSubCount buckets are exact
// (0..histSubCount-1 ns); above that, every power-of-two octave is split
// into histSubCount linear sub-buckets, so a bucket's width is at most
// 1/histSubCount of its lower bound — quantiles read back from the
// buckets carry ≤ 12.5% relative error. Values at or above histMaxValue
// (~18 minutes) clamp into the last bucket.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // 8 sub-buckets per octave
	histMaxExp   = 40               // top octave: [2^40, 2^41) ns ≈ 18–37 min
	// HistogramBuckets is the fixed bucket count of every Histogram.
	HistogramBuckets = (histMaxExp-histSubBits+1)*histSubCount + histSubCount
)

// histMaxValue is the smallest value that clamps into the last bucket.
const histMaxValue = int64(1) << (histMaxExp + 1)

// histBucket maps a nanosecond value to its bucket index.
func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubCount {
		return int(v)
	}
	if v >= histMaxValue {
		return HistogramBuckets - 1
	}
	exp := bits.Len64(uint64(v)) - 1 // ≥ histSubBits
	sub := int(v>>(uint(exp)-histSubBits)) & (histSubCount - 1)
	return (exp-histSubBits)*histSubCount + histSubCount + sub
}

// BucketUpper returns the inclusive upper bound, in nanoseconds, of
// bucket i — the largest value that maps there. The last bucket is
// open-ended and reports histMaxValue.
func BucketUpper(i int) int64 {
	if i < 0 {
		return 0
	}
	if i < histSubCount {
		return int64(i)
	}
	if i >= HistogramBuckets-1 {
		return histMaxValue
	}
	octave := (i - histSubCount) / histSubCount
	sub := (i - histSubCount) % histSubCount
	exp := uint(octave + histSubBits)
	lower := int64(1)<<exp + int64(sub)<<(exp-histSubBits)
	return lower + int64(1)<<(exp-histSubBits) - 1
}

// histStripes is the fixed stripe count. Observe picks a stripe with the
// runtime's per-thread fast random source, so concurrent observers land
// on different cache lines with high probability regardless of GOMAXPROCS.
const histStripes = 8

// histStripe is one independent accumulator. Stripes are merged only at
// Snapshot time.
type histStripe struct {
	counts [HistogramBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	// _pad separates the tail of one stripe's hot fields from the head of
	// the next stripe's bucket array.
	_pad [64]byte //nolint:unused
}

// Histogram is a lock-free latency histogram: log-bucketed (≤ 12.5%
// relative bucket width), striped to histStripes independent accumulator
// sets so concurrent Observe calls rarely contend on a cache line. The
// zero value is ready to use; Observe performs no allocation — a bucket
// add, a sum add, and a CAS loop for the maximum, all on one randomly
// chosen stripe. The total count is not tracked separately: Snapshot
// derives it by summing the buckets.
type Histogram struct {
	stripes [histStripes]histStripe
}

// Observe records one value.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	s := &h.stripes[randv2.Uint64()%histStripes]
	s.counts[histBucket(ns)].Add(1)
	s.sum.Add(ns)
	for {
		cur := s.max.Load()
		if ns <= cur || s.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot merges the stripes into an exported point-in-time view. Each
// field is read atomically but the set is not fenced against concurrent
// Observe calls (which only grow the counters).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Counts = make([]int64, HistogramBuckets)
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.counts {
			s.Counts[b] += st.counts[b].Load()
		}
		s.Sum += st.sum.Load()
		if m := st.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// HistogramSnapshot is an exported, JSON-friendly view of a Histogram,
// mergeable across instances (shards, cluster nodes) with Add.
type HistogramSnapshot struct {
	Counts []int64 // per-bucket observation counts (len HistogramBuckets)
	Count  int64   // total observations
	Sum    int64   // summed nanoseconds
	Max    int64   // worst single observation, nanoseconds
}

// Add merges two snapshots into a new one. Either operand may be the zero
// snapshot (nil Counts).
func (s HistogramSnapshot) Add(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Max:   s.Max,
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	if s.Counts == nil && o.Counts == nil {
		return out
	}
	out.Counts = make([]int64, HistogramBuckets)
	for i := range out.Counts {
		if i < len(s.Counts) {
			out.Counts[i] += s.Counts[i]
		}
		if i < len(o.Counts) {
			out.Counts[i] += o.Counts[i]
		}
	}
	return out
}

// Mean returns the average observed value (0 if empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count <= 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile returns the value at quantile q in [0, 1], derived from the
// bucket counts: the upper bound of the bucket containing the q-th
// observation (≤ 12.5% above the true value), clamped to Max. Returns 0
// for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count <= 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			v := BucketUpper(i)
			if s.Max > 0 && v > s.Max {
				v = s.Max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(s.Max)
}
