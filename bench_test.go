// Benchmarks regenerating the paper's evaluation (§6): one testing.B entry
// per table and figure, running reduced configurations of the same runners
// cmd/rexbench drives in full (figure shape, not absolute numbers — see
// EXPERIMENTS.md), plus real-environment micro-benchmarks measuring the
// genuine per-operation cost of recording, replaying, and encoding traces
// on this machine.
package rex_test

import (
	"io"
	"testing"
	"time"

	"rex/internal/apps"
	"rex/internal/bench"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/trace"
	"rex/internal/wire"
)

// --- Table 1 ---

func BenchmarkTable1Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.PrintTable1(io.Discard)
	}
}

// --- Figure 7: one panel per application ---

func benchFig7(b *testing.B, app apps.App) {
	b.ReportAllocs()
	var last []bench.Fig7Row
	for i := 0; i < b.N; i++ {
		last = bench.Fig7(app, bench.QuickFig7())
	}
	top := last[len(last)-1]
	b.ReportMetric(top.Rex, "rex_req/s")
	b.ReportMetric(top.Native, "native_req/s")
	b.ReportMetric(top.RSM, "rsm_req/s")
	if top.RSM > 0 {
		b.ReportMetric(top.Rex/top.RSM, "rex/rsm")
	}
}

func BenchmarkFig7Thumbnail(b *testing.B)  { benchFig7(b, apps.Thumbnail()) }
func BenchmarkFig7LockServer(b *testing.B) { benchFig7(b, apps.LockServer()) }
func BenchmarkFig7LSMKV(b *testing.B)      { benchFig7(b, apps.LSMKV()) }
func BenchmarkFig7HashDB(b *testing.B)     { benchFig7(b, apps.HashDB()) }
func BenchmarkFig7SimpleFS(b *testing.B)   { benchFig7(b, apps.SimpleFS()) }
func BenchmarkFig7Memcache(b *testing.B)   { benchFig7(b, apps.Memcache()) }

// --- Figure 8 ---

func BenchmarkFig8aGranularity(b *testing.B) {
	cfg := bench.DefaultFig8()
	cfg.Measure = 300 * time.Millisecond
	cfg.Warmup = 100 * time.Millisecond
	var rows []bench.Fig8aRow
	for i := 0; i < b.N; i++ {
		rows = bench.Fig8a(cfg, []int{10, 100}, []float64{0.001, 0.1})
	}
	for _, r := range rows {
		if r.PctInLock == 100 && r.ContentionP == 0.1 {
			b.ReportMetric(r.Rex, "rex_100pct_p0.1_req/s")
		}
	}
}

func BenchmarkFig8bContention(b *testing.B) {
	cfg := bench.DefaultFig8()
	cfg.Measure = 300 * time.Millisecond
	cfg.Warmup = 100 * time.Millisecond
	var rows []bench.Fig8bRow
	for i := 0; i < b.N; i++ {
		rows = bench.Fig8b(cfg, []float64{0.01, 1})
	}
	b.ReportMetric(rows[0].Rex/rows[0].Native, "rex/native_p0.01")
}

// --- Figure 9 ---

func benchFig9(b *testing.B, onPrimary bool) {
	cfg := bench.Fig9Config{
		QueryThreads:  12,
		UpdateThreads: []int{16},
		Cores:         24,
		Warmup:        100 * time.Millisecond,
		Measure:       300 * time.Millisecond,
		Seed:          42,
	}
	var rows []bench.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig9(cfg, onPrimary)
	}
	b.ReportMetric(rows[0].QueryTput, "query_req/s")
	b.ReportMetric(rows[0].UpdateTput, "update_req/s")
}

func BenchmarkFig9QuerySecondary(b *testing.B) { benchFig9(b, false) }
func BenchmarkFig9QueryPrimary(b *testing.B)   { benchFig9(b, true) }

// --- Figure 10 ---

func BenchmarkFig10Failover(b *testing.B) {
	cfg := bench.Fig10Config{
		Threads:         4,
		Cores:           8,
		Clients:         12,
		BucketEvery:     500 * time.Millisecond,
		Checkpoint1:     2 * time.Second,
		Checkpoint2:     5 * time.Second,
		KillAt:          6 * time.Second,
		RestartAt:       9 * time.Second,
		EndAt:           14 * time.Second,
		ElectionTimeout: time.Second,
		Seed:            42,
	}
	var samples []bench.Fig10Sample
	for i := 0; i < b.N; i++ {
		samples = bench.Fig10(cfg)
	}
	var peak float64
	for _, s := range samples {
		if s.Throughput > peak {
			peak = s.Throughput
		}
	}
	b.ReportMetric(peak, "peak_req/s")
}

// --- §6.3 / §4.2 measurements and ablations ---

func BenchmarkTraceSizeProfile(b *testing.B) {
	var s bench.TraceStatsResult
	for i := 0; i < b.N; i++ {
		s = bench.TraceStats(apps.LockServer(), 8)
	}
	b.ReportMetric(s.BytesPerEvent, "bytes/event")
	b.ReportMetric(s.SyncOverhead*100, "sync_pct_of_log")
}

func BenchmarkAblatePruning(b *testing.B) {
	var r bench.EdgeAblationResult
	for i := 0; i < b.N; i++ {
		r = bench.EdgeAblation(apps.LSMKV(), 8)
	}
	b.ReportMetric(r.Reduction*100, "edge_reduction_pct")
}

func BenchmarkAblateTotalOrder(b *testing.B) {
	var r bench.PartialOrderResult
	for i := 0; i < b.N; i++ {
		r = bench.PartialOrderAblation(6)
	}
	b.ReportMetric(r.PartialTime.Seconds()*1000, "partial_replay_ms")
	b.ReportMetric(r.TotalTime.Seconds()*1000, "total_replay_ms")
}

func BenchmarkAblateDeltaProposals(b *testing.B) {
	var r bench.DeltaAblationResult
	for i := 0; i < b.N; i++ {
		r = bench.DeltaAblation(apps.HashDB(), 4)
	}
	if r.DeltaBytes > 0 {
		b.ReportMetric(float64(r.FullBytes)/float64(r.DeltaBytes), "full/delta_bytes")
	}
}

// --- Real-environment micro-benchmarks (genuine ns/op on this machine) ---

// recordDrain keeps the recorder's buffers bounded during long record
// benchmarks.
func recordDrain(rt *sched.Runtime, every int, i int) {
	if i%every == every-1 {
		rt.Recorder().Collect()
	}
}

func BenchmarkRealLockNative(b *testing.B) {
	e := env.NewReal()
	rt := sched.NewRuntime(e, 1, sched.ModeNative)
	l := rexsync.NewLock(rt, "bench")
	w := rt.Worker(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock(w)
		l.Unlock(w)
	}
}

func BenchmarkRealLockRecord(b *testing.B) {
	e := env.NewReal()
	rt := sched.NewRuntime(e, 1, sched.ModeNative)
	rt.StartRecord(nil, 0)
	l := rexsync.NewLock(rt, "bench")
	w := rt.Worker(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock(w)
		l.Unlock(w)
		recordDrain(rt, 1<<14, i)
	}
}

// BenchmarkRecordOverhead measures what the observability layer adds to
// the record hot path. One iteration is a modeled request — a batch of
// recorded lock pairs plus exactly the per-request metric work the
// replica does (admission timestamp, two latency observations, two
// counter increments; see internal/core/primary.go). It times the same
// loop with and without the metric work and reports the overhead as
// overhead_%; the acceptance bar is ≤ 2%.
func BenchmarkRecordOverhead(b *testing.B) {
	e := env.NewReal()
	rt := sched.NewRuntime(e, 1, sched.ModeNative)
	rt.StartRecord(nil, 0)
	l := rexsync.NewLock(rt, "bench")
	w := rt.Worker(0)

	// Sync ops per request, handler-scale (§6.3 traces run tens of sync
	// events per request).
	const opsPerReq = 64
	admitted, completed := obs.NewCounter(), obs.NewCounter()
	execLat, reqLat := obs.NewHistogram(), obs.NewHistogram()
	request := func(i int, instrumented bool) {
		var at time.Duration
		if instrumented {
			admitted.Inc()
			at = e.Now()
		}
		for k := 0; k < opsPerReq; k++ {
			l.Lock(w)
			l.Unlock(w)
		}
		if instrumented {
			d := e.Now() - at
			execLat.Observe(d)
			reqLat.Observe(d)
			completed.Inc()
		}
		recordDrain(rt, 128, i)
	}

	for i := 0; i < 200; i++ { // warm up
		request(i, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i, true)
	}
	b.StopTimer()
	instrNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	// Time the per-request metric work in isolation. Differencing two
	// multi-microsecond loop timings drowns a ~100ns signal in scheduler
	// noise; the two direct measurements are each stable.
	const m = 1 << 20
	t0 := time.Now()
	for i := 0; i < m; i++ {
		admitted.Inc()
		at := e.Now()
		d := e.Now() - at
		execLat.Observe(d)
		reqLat.Observe(d)
		completed.Inc()
	}
	metricNs := float64(time.Since(t0).Nanoseconds()) / float64(m)
	if baseNs := instrNs - metricNs; baseNs > 0 {
		b.ReportMetric(metricNs/baseNs*100, "overhead_%")
		b.ReportMetric(metricNs, "metrics_ns/req")
	}
}

func BenchmarkRealLockReplay(b *testing.B) {
	e := env.NewReal()
	// Record b.N lock pairs...
	rec := sched.NewRuntime(e, 1, sched.ModeNative)
	rec.StartRecord(nil, 0)
	lr := rexsync.NewLock(rec, "bench")
	w := rec.Worker(0)
	for i := 0; i < b.N; i++ {
		lr.Lock(w)
		lr.Unlock(w)
	}
	tr := trace.New(1)
	if err := tr.Apply(rec.Recorder().Collect()); err != nil {
		b.Fatal(err)
	}
	// ...then measure replaying them.
	rep := sched.NewRuntime(e, 1, sched.ModeNative)
	lp := rexsync.NewLock(rep, "bench")
	rep.StartReplay(tr, nil)
	wp := rep.Worker(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Lock(wp)
		lp.Unlock(wp)
	}
}

func BenchmarkRealLockReplayNoChecks(b *testing.B) {
	e := env.NewReal()
	rec := sched.NewRuntime(e, 1, sched.ModeNative)
	rec.StartRecord(nil, 0)
	lr := rexsync.NewLock(rec, "bench")
	w := rec.Worker(0)
	for i := 0; i < b.N; i++ {
		lr.Lock(w)
		lr.Unlock(w)
	}
	tr := trace.New(1)
	if err := tr.Apply(rec.Recorder().Collect()); err != nil {
		b.Fatal(err)
	}
	rep := sched.NewRuntime(e, 1, sched.ModeNative)
	rep.CheckVersions = false // the §5.1 version-checking ablation
	lp := rexsync.NewLock(rep, "bench")
	rep.StartReplay(tr, nil)
	wp := rep.Worker(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Lock(wp)
		lp.Unlock(wp)
	}
}

func BenchmarkRealValueRecord(b *testing.B) {
	e := env.NewReal()
	rt := sched.NewRuntime(e, 1, sched.ModeNative)
	rt.StartRecord(nil, 0)
	w := rt.Worker(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rexsync.Value(w, 1, func() uint64 { return uint64(i) })
		recordDrain(rt, 1<<14, i)
	}
}

// buildBenchDelta makes a delta with n two-event, one-edge request traces.
func buildBenchDelta(n int) *trace.Delta {
	d := &trace.Delta{Base: trace.Cut{0, 0}, Threads: make([]trace.ThreadLog, 2)}
	for i := 0; i < n; i++ {
		d.Threads[0].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1, Arg: uint64(i)}, nil)
		d.Threads[1].Append(trace.Event{Kind: trace.KindLockAcq, Res: 2, Arg: uint64(i)},
			[]trace.EventID{{Thread: 0, Clock: int32(i + 1)}})
	}
	return d
}

func BenchmarkTraceEncode(b *testing.B) {
	d := buildBenchDelta(1000)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		bytes = len(d.EncodeBytes())
	}
	b.ReportMetric(float64(bytes)/float64(d.EventCount()), "bytes/event")
}

// BenchmarkTraceEncodeCold is the pre-pooling baseline — a fresh encoder
// per delta pays O(log n) growth reallocations that the pooled path
// (BenchmarkTraceEncodeHint) amortizes away. Compare allocs/op.
func BenchmarkTraceEncodeCold(b *testing.B) {
	d := buildBenchDelta(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := wire.NewEncoder(nil)
		d.Encode(e)
		_ = e.Bytes()
	}
}

// BenchmarkTraceEncodeHint is the primary's hot path: a pooled encoder
// pre-sized from the previous delta's encoded length.
func BenchmarkTraceEncodeHint(b *testing.B) {
	d := buildBenchDelta(1000)
	hint := len(d.EncodeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.EncodeBytesHint(hint)
	}
}

func BenchmarkTraceDecode(b *testing.B) {
	buf := buildBenchDelta(1000).EncodeBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeDeltaBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsistentCut(b *testing.B) {
	tr := trace.New(2)
	if err := tr.Apply(buildBenchDelta(1000)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ConsistentCut(nil)
	}
}
