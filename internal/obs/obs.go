// Package obs is Rex's dependency-free metrics substrate: atomic counters,
// gauges, and fixed-bucket latency histograms with percentile snapshots.
// Every primitive is safe to call from hot paths (an Observe or Add is a
// few atomic operations, ~tens of ns) and safe under both the real
// environment and the simulator — metrics never block, never allocate
// after construction, and take no locks on the record path.
//
// Metric objects are standalone; a Registry is only a naming and export
// layer on top of them. Code that owns metrics (core, paxos, sched,
// transport) creates the objects directly and keeps updating them whether
// or not anyone registered them; cmd/rexd and the benchmarks register the
// interesting ones under stable names and export snapshots or a
// Prometheus-compatible text dump.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up or down).
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a zeroed gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge computed on demand (e.g. a queue depth).
type GaugeFunc func() int64

// histBounds are the fixed histogram bucket upper bounds (inclusive, "le"
// semantics): a 1-2-5 series from 100ns to 10s. An observation v lands in
// the first bucket with v <= bound; anything larger lands in the overflow
// bucket. The series is fixed so histograms from different replicas and
// runs are always mergeable and comparable.
var histBounds = []time.Duration{
	100 * time.Nanosecond, 250 * time.Nanosecond, 500 * time.Nanosecond,
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// NumBuckets is the number of histogram buckets including overflow.
const NumBuckets = 26 // len(histBounds) + 1

// Histogram is a fixed-bucket latency histogram. Observations are
// durations; negative observations clamp to zero. All methods are safe for
// concurrent use; Observe is lock-free.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex returns the index of the bucket that holds d: the first
// bound with d <= bound, or the overflow bucket.
func bucketIndex(d time.Duration) int {
	// Binary search over the small fixed table (5 probes).
	lo, hi := 0, len(histBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= histBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == len(histBounds) for overflow
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation seen.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// smallest bucket bound b such that at least ceil(q*count) observations
// are <= b. Observations in the overflow bucket report the maximum
// observation seen. Returns 0 when the histogram is empty.
//
// Because buckets are fixed, the result is an upper bound with the
// resolution of the 1-2-5 series: an exact boundary observation (say
// exactly 1ms) reports exactly that boundary.
func (h *Histogram) Quantile(q float64) time.Duration {
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
	// rank = ceil(q*total), at least 1.
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < len(histBounds); i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return histBounds[i]
		}
	}
	return h.Max()
}

// Snapshot returns a consistent-enough copy of the histogram (buckets are
// read individually; totals may trail by in-flight observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	P50     time.Duration
	P95     time.Duration
	P99     time.Duration
	Buckets [NumBuckets]uint64 // parallel to BucketBounds(), last = overflow
}

// Mean returns the mean observation, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// BucketBounds returns the fixed bucket upper bounds (excluding the
// overflow bucket).
func BucketBounds() []time.Duration {
	return append([]time.Duration(nil), histBounds...)
}

// Registry names and exports metrics. Registration takes a lock; updates
// to the registered metrics never do.
//
// A Registry may be a labeled view of another registry (see Labeled):
// views share the parent's storage but decorate every registered name
// with a label block, so one process hosting several shard groups can
// register each group's identically named series side by side
// (`rex_requests_admitted_total{group="2"}`).
type Registry struct {
	mu         sync.Mutex
	names      []string // registration order
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]GaugeFunc
	histograms map[string]*Histogram
	sizeHists  map[string]*SizeHistogram

	// base and labels make this a labeled view: registrations decorate
	// names and land in base's maps. Both are nil/empty on a root registry.
	base   *Registry
	labels string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]GaugeFunc),
		histograms: make(map[string]*Histogram),
		sizeHists:  make(map[string]*SizeHistogram),
	}
}

// Labeled returns a view of r that attaches `key="value"` to every metric
// name registered through it. The view shares r's storage: snapshots and
// text dumps of r include the labeled series. Chaining Labeled appends
// further pairs.
func (r *Registry) Labeled(key, value string) *Registry {
	pair := fmt.Sprintf("%s=%q", key, value)
	labels := r.labels
	if labels != "" {
		labels += "," + pair
	} else {
		labels = pair
	}
	return &Registry{base: r.root(), labels: labels}
}

// root returns the registry owning the storage (r itself unless r is a
// labeled view).
func (r *Registry) root() *Registry {
	if r.base != nil {
		return r.base
	}
	return r
}

// decorate merges the view's labels into name.
func (r *Registry) decorate(name string) string {
	if r.labels == "" {
		return name
	}
	return WithLabels(name, r.labels)
}

// WithLabels merges a comma-joined `k="v"` label list into a series name,
// inserting into an existing label block if the name already has one.
func WithLabels(name, labels string) string {
	if labels == "" {
		return name
	}
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + labels + "}"
	}
	return name + "{" + labels + "}"
}

// SplitLabels splits a decorated series name into its base name and label
// list (empty when undecorated).
func SplitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

func (r *Registry) addName(name string) {
	for _, n := range r.names {
		if n == name {
			panic(fmt.Sprintf("obs: duplicate metric name %q", name))
		}
	}
	r.names = append(r.names, name)
}

// Counter creates and registers a counter under name.
func (r *Registry) Counter(name string) *Counter {
	c := NewCounter()
	r.RegisterCounter(name, c)
	return c
}

// RegisterCounter registers an existing counter under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addName(name)
	t.counters[name] = c
}

// CounterOf returns the counter registered under name, creating it on
// first use. Unlike Counter it is idempotent, which suits dynamically
// named metrics (the chaos engine's per-fault-kind counters). It still
// panics if name is already taken by a different metric type.
func (r *Registry) CounterOf(name string) *Counter {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.counters[name]; ok {
		return c
	}
	t.addName(name)
	c := NewCounter()
	t.counters[name] = c
	return c
}

// Gauge creates and registers a gauge under name.
func (r *Registry) Gauge(name string) *Gauge {
	g := NewGauge()
	r.RegisterGauge(name, g)
	return g
}

// RegisterGauge registers an existing gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addName(name)
	t.gauges[name] = g
}

// GaugeOf returns the gauge registered under name, creating it on first
// use (the idempotent counterpart of Gauge).
func (r *Registry) GaugeOf(name string) *Gauge {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if g, ok := t.gauges[name]; ok {
		return g
	}
	t.addName(name)
	g := NewGauge()
	t.gauges[name] = g
	return g
}

// RegisterGaugeFunc registers a computed gauge under name. fn must be safe
// to call from any goroutine.
func (r *Registry) RegisterGaugeFunc(name string, fn GaugeFunc) {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addName(name)
	t.gaugeFuncs[name] = fn
}

// Histogram creates and registers a histogram under name.
func (r *Registry) Histogram(name string) *Histogram {
	h := NewHistogram()
	r.RegisterHistogram(name, h)
	return h
}

// RegisterHistogram registers an existing histogram under name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addName(name)
	t.histograms[name] = h
}

// HistogramOf returns the histogram registered under name, creating it
// on first use (the idempotent counterpart of Histogram).
func (r *Registry) HistogramOf(name string) *Histogram {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.histograms[name]; ok {
		return h
	}
	t.addName(name)
	h := NewHistogram()
	t.histograms[name] = h
	return h
}

// SizeHistogram creates and registers a size histogram under name.
func (r *Registry) SizeHistogram(name string) *SizeHistogram {
	h := NewSizeHistogram()
	r.RegisterSizeHistogram(name, h)
	return h
}

// RegisterSizeHistogram registers an existing size histogram under name.
func (r *Registry) RegisterSizeHistogram(name string, h *SizeHistogram) {
	t, name := r.root(), r.decorate(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addName(name)
	t.sizeHists[name] = h
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
	Sizes      map[string]SizeSnapshot
}

// Counter returns the named counter's value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Histogram returns the named histogram's snapshot (zero if absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// Size returns the named size histogram's snapshot (zero if absent).
func (s Snapshot) Size(name string) SizeSnapshot { return s.Sizes[name] }

// Snapshot copies every registered metric. On a labeled view it snapshots
// the whole underlying registry (keys carry their label blocks).
func (r *Registry) Snapshot() Snapshot {
	r = r.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
		Sizes:      make(map[string]SizeSnapshot, len(r.sizeHists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, fn := range r.gaugeFuncs {
		s.Gauges[n] = fn()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Snapshot()
	}
	for n, h := range r.sizeHists {
		s.Sizes[n] = h.Snapshot()
	}
	return s
}

// WriteText dumps every registered metric in Prometheus text exposition
// format (histograms as cumulative _bucket/_sum/_count series with le
// labels in seconds), in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r = r.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names {
		base, _ := SplitLabels(name)
		var err error
		switch {
		case r.counters[name] != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", base, name, r.counters[name].Value())
		case r.gauges[name] != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", base, name, r.gauges[name].Value())
		case r.gaugeFuncs[name] != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", base, name, r.gaugeFuncs[name]())
		case r.histograms[name] != nil:
			err = writeHistText(w, name, r.histograms[name].Snapshot())
		case r.sizeHists[name] != nil:
			err = writeSizeHistText(w, name, r.sizeHists[name].Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// histSeries renders the per-series name for a histogram sub-series:
// base_bucket{<labels,>le="bound"} / base_sum{<labels>} / base_count{<labels>}.
func histSeries(base, labels, suffix, le string) string {
	all := labels
	if le != "" {
		if all != "" {
			all += ","
		}
		all += `le="` + le + `"`
	}
	return WithLabels(base+suffix, all)
}

func writeHistText(w io.Writer, name string, s HistogramSnapshot) error {
	base, labels := SplitLabels(name)
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
		return err
	}
	var cum uint64
	for i, b := range histBounds {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", histSeries(base, labels, "_bucket", formatSeconds(b)), cum); err != nil {
			return err
		}
	}
	cum += s.Buckets[NumBuckets-1]
	if _, err := fmt.Fprintf(w, "%s %d\n", histSeries(base, labels, "_bucket", "+Inf"), cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n%s %d\n",
		histSeries(base, labels, "_sum", ""), formatSeconds(s.Sum),
		histSeries(base, labels, "_count", ""), s.Count)
	return err
}

// formatSeconds renders a duration as decimal seconds without trailing
// zeros (Prometheus le label convention).
func formatSeconds(d time.Duration) string {
	s := fmt.Sprintf("%.9f", d.Seconds())
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}
