package bench

import (
	"fmt"
	"io"
	"testing"
	"time"

	"rex/internal/apps"
	"rex/internal/trace"
	"rex/internal/wire"
)

// CommitPathResult is the machine-readable evidence for the commit-path
// acceptance criteria: the pooled delta encoder cuts allocs/op against a
// cold encoder, the quick Figure 7 throughput is intact (its rows carry
// the Paxos persist batch sizes, records per WAL append), and conflict
// classes shrink the deltas. `make bench-json` serializes it as
// BENCH_commit_path.json.
type CommitPathResult struct {
	Encode   EncodeBenchResult `json:"encode"`
	Fig7     []Fig7Point       `json:"fig7_quick"`
	Conflict []ConflictPoint   `json:"conflict_classes"`
}

// ConflictPoint is the conflict-class elision experiment: the disjoint-key
// hashdb workload measured with class elision on (the default) and off,
// on the same thread count and seed. The elided delta size is the
// acceptance number; the full-tracing columns show what the same commits
// would have cost without classes.
type ConflictPoint struct {
	Threads               int     `json:"threads"`
	ElidedReqPerSec       float64 `json:"elided_req_per_sec"`
	ElidedDeltaBytesMean  float64 `json:"elided_delta_bytes_mean"`
	ElidedDeltaEventsMean float64 `json:"elided_delta_events_mean"`
	ElidedOps             uint64  `json:"elided_ops"`
	FullReqPerSec         float64 `json:"full_req_per_sec"`
	FullDeltaBytesMean    float64 `json:"full_delta_bytes_mean"`
	FullDeltaEventsMean   float64 `json:"full_delta_events_mean"`
	// DeltaBytesRatio = full / elided: the trace-size win from elision.
	DeltaBytesRatio float64 `json:"delta_bytes_full_over_elided"`
}

// EncodeBenchResult compares the pooled EncodeBytesHint path against a
// cold (fresh-encoder) baseline, both measured with testing.Benchmark so
// allocs/op are the runtime's own accounting.
type EncodeBenchResult struct {
	EventsPerDelta    int     `json:"events_per_delta"`
	DeltaBytes        int     `json:"delta_bytes"`
	ColdNsPerOp       float64 `json:"cold_ns_per_op"`
	ColdAllocsPerOp   int64   `json:"cold_allocs_per_op"`
	ColdBytesPerOp    int64   `json:"cold_bytes_per_op"`
	PooledNsPerOp     float64 `json:"pooled_ns_per_op"`
	PooledAllocsPerOp int64   `json:"pooled_allocs_per_op"`
	PooledBytesPerOp  int64   `json:"pooled_bytes_per_op"`
}

// Fig7Point is one quick Figure 7 x-axis point plus the commit-path
// metrics the primary recorded while producing it.
type Fig7Point struct {
	Threads            int     `json:"threads"`
	RexReqPerSec       float64 `json:"rex_req_per_sec"`
	NativeReqPerSec    float64 `json:"native_req_per_sec"`
	ProposeCommitP50Ms float64 `json:"propose_commit_p50_ms"`
	DeltaBytesMean     float64 `json:"delta_bytes_mean"`
	DeltaEventsMean    float64 `json:"delta_events_mean"`
	PersistBatchMean   float64 `json:"persist_batch_records_mean"`
	PersistBatchMax    uint64  `json:"persist_batch_records_max"`
}

// commitPathDelta builds a delta shaped like a busy primary's proposal:
// two-event, one-edge request traces spread over a few threads.
func commitPathDelta(n int) *trace.Delta {
	d := &trace.Delta{Base: trace.Cut{0, 0}, Threads: make([]trace.ThreadLog, 2)}
	for i := 0; i < n; i++ {
		d.Threads[0].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1, Arg: uint64(i)}, nil)
		d.Threads[1].Append(trace.Event{Kind: trace.KindLockAcq, Res: 2, Arg: uint64(i)},
			[]trace.EventID{{Thread: 0, Clock: int32(i + 1)}})
	}
	return d
}

// encodeBench measures the cold baseline (a fresh encoder per delta)
// against the pooled EncodeBytesHint hot path.
func encodeBench(events int) EncodeBenchResult {
	d := commitPathDelta(events / 2)
	hint := len(d.EncodeBytes())
	r := EncodeBenchResult{EventsPerDelta: d.EventCount(), DeltaBytes: hint}

	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := wire.NewEncoder(nil)
			d.Encode(e)
			_ = e.Bytes()
		}
	})
	pooled := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = d.EncodeBytesHint(hint)
		}
	})
	r.ColdNsPerOp = float64(cold.NsPerOp())
	r.ColdAllocsPerOp = cold.AllocsPerOp()
	r.ColdBytesPerOp = cold.AllocedBytesPerOp()
	r.PooledNsPerOp = float64(pooled.NsPerOp())
	r.PooledAllocsPerOp = pooled.AllocsPerOp()
	r.PooledBytesPerOp = pooled.AllocedBytesPerOp()
	return r
}

// conflictBench runs the disjoint-key hashdb workload at the given thread
// count twice — elision on, then off — with everything else identical.
func conflictBench(threads int) ConflictPoint {
	base := RunConfig{
		App:     apps.HashDBDisjoint(),
		Threads: threads,
		Cores:   24,
		Warmup:  100 * time.Millisecond,
		Measure: 400 * time.Millisecond,
		Seed:    42,
	}
	elided := RunRex(base)
	full := base
	full.DisableConflictElision = true
	fullRes := RunRex(full)
	p := ConflictPoint{
		Threads:               threads,
		ElidedReqPerSec:       elided.Throughput,
		ElidedDeltaBytesMean:  elided.Primary.Size("rex_delta_bytes").Mean(),
		ElidedDeltaEventsMean: elided.Primary.Size("rex_delta_events").Mean(),
		ElidedOps:             elided.ElidedOps,
		FullReqPerSec:         fullRes.Throughput,
		FullDeltaBytesMean:    fullRes.Primary.Size("rex_delta_bytes").Mean(),
		FullDeltaEventsMean:   fullRes.Primary.Size("rex_delta_events").Mean(),
	}
	if p.ElidedDeltaBytesMean > 0 {
		p.DeltaBytesRatio = p.FullDeltaBytesMean / p.ElidedDeltaBytesMean
	}
	return p
}

// CommitPath runs the commit-path evidence suite: the encode allocation
// microbench, a quick Figure 7 panel (lock server) with the primary's
// commit-path metrics attached, and the conflict-class delta-size
// experiment.
func CommitPath() CommitPathResult {
	var res CommitPathResult
	res.Encode = encodeBench(2000)
	for _, row := range Fig7(apps.LockServer(), QuickFig7()) {
		pc := row.Metrics.Histogram("rex_propose_commit_seconds")
		db := row.Metrics.Size("rex_delta_bytes")
		de := row.Metrics.Size("rex_delta_events")
		pb := row.Metrics.Size("rex_paxos_persist_batch_records")
		res.Fig7 = append(res.Fig7, Fig7Point{
			Threads:            row.Threads,
			RexReqPerSec:       row.Rex,
			NativeReqPerSec:    row.Native,
			ProposeCommitP50Ms: float64(pc.P50.Nanoseconds()) / 1e6,
			DeltaBytesMean:     db.Mean(),
			DeltaEventsMean:    de.Mean(),
			PersistBatchMean:   pb.Mean(),
			PersistBatchMax:    pb.Max,
		})
	}
	res.Conflict = append(res.Conflict, conflictBench(16))
	return res
}

// PrintCommitPath renders the suite as tables.
func PrintCommitPath(w io.Writer, r CommitPathResult) {
	t := &Table{
		Title: "Commit path: delta encoding, cold encoder vs pooled EncodeBytesHint",
		Cols:  []string{"path", "ns/op", "allocs/op", "B/op"},
	}
	t.AddRow("cold", f0(r.Encode.ColdNsPerOp), fmt.Sprint(r.Encode.ColdAllocsPerOp), fmt.Sprint(r.Encode.ColdBytesPerOp))
	t.AddRow("pooled", f0(r.Encode.PooledNsPerOp), fmt.Sprint(r.Encode.PooledAllocsPerOp), fmt.Sprint(r.Encode.PooledBytesPerOp))
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d events, %d encoded bytes per delta; acceptance: pooled allocs/op below cold.",
			r.Encode.EventsPerDelta, r.Encode.DeltaBytes))
	t.Fprint(w)

	t = &Table{
		Title: "Commit path: quick Figure 7 (lock server) with primary commit-path metrics",
		Cols: []string{"threads", "Rex (req/s)", "native (req/s)", "propose→commit p50 (ms)",
			"delta bytes", "delta events", "persist batch mean", "persist batch max"},
	}
	for _, p := range r.Fig7 {
		t.AddRow(fmt.Sprint(p.Threads), f0(p.RexReqPerSec), f0(p.NativeReqPerSec),
			f2(p.ProposeCommitP50Ms), f0(p.DeltaBytesMean), f1(p.DeltaEventsMean),
			f2(p.PersistBatchMean), fmt.Sprint(p.PersistBatchMax))
	}
	t.Fprint(w)

	t = &Table{
		Title: "Commit path: conflict-class elision (hashdb, per-client disjoint keys)",
		Cols: []string{"threads", "req/s elided", "req/s full", "delta bytes elided",
			"delta bytes full", "delta events elided", "delta events full", "ops elided", "bytes ratio"},
	}
	for _, p := range r.Conflict {
		t.AddRow(fmt.Sprint(p.Threads), f0(p.ElidedReqPerSec), f0(p.FullReqPerSec),
			f0(p.ElidedDeltaBytesMean), f0(p.FullDeltaBytesMean),
			f1(p.ElidedDeltaEventsMean), f1(p.FullDeltaEventsMean),
			fmt.Sprint(p.ElidedOps), f2(p.DeltaBytesRatio))
	}
	t.Notes = append(t.Notes,
		"acceptance: elided delta bytes well below full (class-owned lock events leave the trace).")
	t.Fprint(w)
}
