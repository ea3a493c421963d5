package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// sizeBounds are the fixed SizeHistogram bucket upper bounds (inclusive):
// a 1-2-5 series from 1 to 1e6. Like the latency bounds, the series is
// fixed so size histograms from different replicas and runs always merge
// and compare. Anything above the last bound lands in the overflow bucket.
var sizeBounds = []uint64{
	1, 2, 5,
	10, 20, 50,
	100, 200, 500,
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000,
}

// NumSizeBuckets is the number of SizeHistogram buckets including overflow.
const NumSizeBuckets = 20 // len(sizeBounds) + 1

// SizeHistogram is a fixed-bucket histogram over dimensionless counts and
// sizes (batch sizes, delta bytes, events per delta) — the count-valued
// sibling of Histogram. Observe is lock-free and allocation-free, so it is
// safe on hot paths like the WAL flush.
type SizeHistogram struct {
	counts [NumSizeBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// NewSizeHistogram returns an empty size histogram.
func NewSizeHistogram() *SizeHistogram { return &SizeHistogram{} }

func sizeBucketIndex(v uint64) int {
	lo, hi := 0, len(sizeBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= sizeBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == len(sizeBounds) for overflow
}

// Observe records one value.
func (h *SizeHistogram) Observe(v uint64) {
	h.counts[sizeBucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *SizeHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *SizeHistogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observation seen.
func (h *SizeHistogram) Max() uint64 { return h.max.Load() }

// Mean returns the mean observation, or 0 when empty.
func (h *SizeHistogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Quantile returns an upper bound for the q-quantile with the resolution
// of the 1-2-5 series (observations in the overflow bucket report Max).
// Returns 0 when empty.
func (h *SizeHistogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < len(sizeBounds); i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return sizeBounds[i]
		}
	}
	return h.Max()
}

// SizeSnapshot is a point-in-time view of a SizeHistogram.
type SizeSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	P50     uint64
	P95     uint64
	P99     uint64
	Buckets [NumSizeBuckets]uint64 // parallel to sizeBounds, last = overflow
}

// Mean returns the mean observation, or 0 when empty.
func (s SizeSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot copies the histogram (buckets are read individually; totals may
// trail by in-flight observations).
func (h *SizeHistogram) Snapshot() SizeSnapshot {
	s := SizeSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

func writeSizeHistText(w io.Writer, name string, s SizeSnapshot) error {
	base, labels := SplitLabels(name)
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
		return err
	}
	var cum uint64
	for i, b := range sizeBounds {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", histSeries(base, labels, "_bucket", fmt.Sprintf("%d", b)), cum); err != nil {
			return err
		}
	}
	cum += s.Buckets[NumSizeBuckets-1]
	if _, err := fmt.Fprintf(w, "%s %d\n", histSeries(base, labels, "_bucket", "+Inf"), cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n%s %d\n",
		histSeries(base, labels, "_sum", ""), s.Sum,
		histSeries(base, labels, "_count", ""), s.Count)
	return err
}
