package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := NewGauge()
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// exactly at a bucket bound lands in that bucket, one nanosecond above
// lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := BucketBounds()
	for i, b := range bounds {
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(%v) = %d, want %d (boundary inclusive)", b, got, i)
		}
		if got := bucketIndex(b + 1); got != i+1 {
			t.Errorf("bucketIndex(%v+1ns) = %d, want %d", b, got, i+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(bounds[len(bounds)-1] + time.Hour); got != len(bounds) {
		t.Errorf("overflow index = %d, want %d", got, len(bounds))
	}
}

// TestHistogramQuantileAtBoundaries checks the percentile math against the
// documented contract: Quantile(q) is the smallest bucket bound covering
// at least ceil(q*count) observations.
func TestHistogramQuantileAtBoundaries(t *testing.T) {
	h := NewHistogram()
	// 100 observations: 50 at exactly 1ms, 45 at exactly 10ms, 5 at
	// exactly 100ms. All are exact bucket bounds.
	for i := 0; i < 50; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 45; i++ {
		h.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(100 * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.01, time.Millisecond},        // rank 1
		{0.50, time.Millisecond},        // rank 50: exactly the first 50 obs
		{0.51, 10 * time.Millisecond},   // rank 51 crosses into the next bucket
		{0.95, 10 * time.Millisecond},   // rank 95 = 50+45
		{0.951, 100 * time.Millisecond}, // rank 96
		{0.99, 100 * time.Millisecond},
		{1.0, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	wantSum := 50*time.Millisecond + 450*time.Millisecond + 500*time.Millisecond
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", got)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	h.Observe(time.Minute) // beyond the last bound
	if got := h.Quantile(0.99); got != time.Minute {
		t.Fatalf("overflow Quantile = %v, want the observed max (1m)", got)
	}
	h.Observe(-time.Second) // clamps to zero
	if got := h.Quantile(0.25); got != BucketBounds()[0] {
		t.Fatalf("clamped Quantile = %v, want first bound", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
	var cum uint64
	s := h.Snapshot()
	for _, b := range s.Buckets {
		cum += b
	}
	if cum != 8000 {
		t.Fatalf("bucket sum = %d, want 8000", cum)
	}
}

func TestRegistryTextDump(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rex_requests_total")
	c.Add(3)
	g := reg.Gauge("rex_outstanding")
	g.Set(2)
	reg.RegisterGaugeFunc("rex_inbox_depth", func() int64 { return 9 })
	h := reg.Histogram("rex_request_latency_seconds")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rex_requests_total counter\nrex_requests_total 3\n",
		"# TYPE rex_outstanding gauge\nrex_outstanding 2\n",
		"rex_inbox_depth 9\n",
		"# TYPE rex_request_latency_seconds histogram\n",
		`rex_request_latency_seconds_bucket{le="0.001"} 1`,
		`rex_request_latency_seconds_bucket{le="0.002"} 2`,
		`rex_request_latency_seconds_bucket{le="+Inf"} 2`,
		"rex_request_latency_seconds_sum 0.003\n",
		"rex_request_latency_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q\n---\n%s", want, out)
		}
	}

	s := reg.Snapshot()
	if s.Counter("rex_requests_total") != 3 {
		t.Errorf("snapshot counter = %d, want 3", s.Counter("rex_requests_total"))
	}
	if s.Gauges["rex_inbox_depth"] != 9 {
		t.Errorf("snapshot gauge func = %d, want 9", s.Gauges["rex_inbox_depth"])
	}
	if hs := s.Histogram("rex_request_latency_seconds"); hs.Count != 2 || hs.P95 != 2*time.Millisecond {
		t.Errorf("snapshot histogram = %+v", hs)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("dup")
	reg.Counter("dup")
}

// BenchmarkHistogramObserve is the metrics hot path: one Observe.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) & (1<<20 - 1))
	}
}

// BenchmarkCounterInc is the cheapest metrics operation.
func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func TestSizeHistogram(t *testing.T) {
	h := NewSizeHistogram()
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	h.Observe(0) // clamps into the first bucket
	if h.Count() != 101 {
		t.Errorf("Count = %d, want 101", h.Count())
	}
	if h.Max() != 100 {
		t.Errorf("Max = %d, want 100", h.Max())
	}
	if got := h.Sum(); got != 5050 {
		t.Errorf("Sum = %d, want 5050", got)
	}
	if m := h.Mean(); m < 49 || m > 51 {
		t.Errorf("Mean = %f, want ~50", m)
	}
	// Quantiles are bucket upper bounds: p50 of 1..100 lands in the 50
	// bucket, p99 in the 100 bucket.
	if q := h.Quantile(0.50); q != 50 {
		t.Errorf("P50 = %d, want 50 (bucket bound)", q)
	}
	if q := h.Quantile(0.99); q != 100 {
		t.Errorf("P99 = %d, want 100 (bucket bound)", q)
	}

	reg := NewRegistry()
	reg.RegisterSizeHistogram("rex_test_sizes", h)
	s := reg.Snapshot()
	if sz := s.Size("rex_test_sizes"); sz.Count != 101 || sz.Max != 100 {
		t.Errorf("snapshot size hist = %+v", sz)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rex_test_sizes_count 101") || !strings.Contains(out, `le="50"`) {
		t.Errorf("WriteText output missing size histogram lines:\n%s", out)
	}
}

// BenchmarkSizeHistogramObserve guards the commit hot path: one
// batch-size observation per Paxos persist flush.
func BenchmarkSizeHistogramObserve(b *testing.B) {
	h := NewSizeHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & (1<<18 - 1))
	}
}

// TestLabeledRegistry covers the labeled-view mechanism multi-group
// hosting relies on: identically named series from several groups live
// side by side in one registry, distinguished by label blocks.
func TestLabeledRegistry(t *testing.T) {
	root := NewRegistry()
	g0 := root.Labeled("group", "0")
	g1 := root.Labeled("group", "1")

	c0 := g0.Counter("rex_requests_total")
	c1 := g1.Counter("rex_requests_total") // same base name: must not panic
	c0.Add(3)
	c1.Add(7)

	s := root.Snapshot()
	if got := s.Counter(`rex_requests_total{group="0"}`); got != 3 {
		t.Errorf("group 0 counter = %d, want 3", got)
	}
	if got := s.Counter(`rex_requests_total{group="1"}`); got != 7 {
		t.Errorf("group 1 counter = %d, want 7", got)
	}
	// Snapshots via the view see the whole registry.
	if got := g0.Snapshot().Counter(`rex_requests_total{group="1"}`); got != 7 {
		t.Errorf("view snapshot counter = %d, want 7", got)
	}

	h := g1.Histogram("rex_latency_seconds")
	h.Observe(2 * time.Millisecond)
	sh := g1.SizeHistogram("rex_batch_size")
	sh.Observe(4)

	var buf bytes.Buffer
	if err := root.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`rex_requests_total{group="0"} 3`,
		`rex_requests_total{group="1"} 7`,
		"# TYPE rex_latency_seconds histogram",
		`rex_latency_seconds_bucket{group="1",le="0.002"} 1`,
		`rex_latency_seconds_count{group="1"} 1`,
		`rex_batch_size_bucket{group="1",le="5"} 1`,
		`rex_batch_size_sum{group="1"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
	// TYPE lines must use the base name, never the decorated one.
	if strings.Contains(out, `# TYPE rex_requests_total{`) {
		t.Errorf("TYPE line carries labels:\n%s", out)
	}
}

// TestWithLabels covers label merging into already-decorated names.
func TestWithLabels(t *testing.T) {
	cases := []struct{ name, labels, want string }{
		{"m", "", "m"},
		{"m", `a="1"`, `m{a="1"}`},
		{`m{a="1"}`, `b="2"`, `m{a="1",b="2"}`},
	}
	for _, c := range cases {
		if got := WithLabels(c.name, c.labels); got != c.want {
			t.Errorf("WithLabels(%q, %q) = %q, want %q", c.name, c.labels, got, c.want)
		}
	}
	base, labels := SplitLabels(`m{a="1",b="2"}`)
	if base != "m" || labels != `a="1",b="2"` {
		t.Errorf("SplitLabels = %q, %q", base, labels)
	}
}
