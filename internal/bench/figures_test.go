package bench

import (
	"os"
	"testing"
	"time"

	"rex/internal/apps"
)

func TestFig7ShapeThumbnailVsMemcache(t *testing.T) {
	cfg := QuickFig7()
	thumb := Fig7(apps.Thumbnail(), cfg)
	PrintFig7(os.Stderr, apps.Thumbnail(), thumb)
	// The compute-bound app must scale under Rex.
	if thumb[len(thumb)-1].Rex < 3*thumb[0].Rex {
		t.Errorf("thumbnail Rex did not scale: %v -> %v", thumb[0].Rex, thumb[len(thumb)-1].Rex)
	}
	// Rex must clearly beat the serialized RSM baseline at high thread
	// counts (paper: 3-16x).
	last := thumb[len(thumb)-1]
	if last.Rex < 3*last.RSM {
		t.Errorf("thumbnail Rex/RSM = %.1f, want >= 3", last.Rex/last.RSM)
	}

	mc := Fig7(apps.Memcache(), cfg)
	PrintFig7(os.Stderr, apps.Memcache(), mc)
	// The global-lock app must NOT scale (paper's negative result): going
	// from 1 to 16 threads buys little.
	if mc[len(mc)-1].Rex > 3*mc[0].Rex {
		t.Errorf("memcache unexpectedly scaled under Rex: %v -> %v", mc[0].Rex, mc[len(mc)-1].Rex)
	}
}

func TestFig8aGranularityShape(t *testing.T) {
	cfg := DefaultFig8()
	cfg.Measure = 400 * time.Millisecond
	cfg.Warmup = 100 * time.Millisecond
	rows := Fig8a(cfg, []int{10, 100}, []float64{0.001, 0.1})
	PrintFig8a(os.Stderr, rows)
	get := func(pct int, p float64) float64 {
		for _, r := range rows {
			if r.PctInLock == pct && r.ContentionP == p {
				return r.Rex
			}
		}
		t.Fatalf("missing cell %d%%@%g", pct, p)
		return 0
	}
	drop100 := 1 - get(100, 0.1)/get(100, 0.001)
	drop10 := 1 - get(10, 0.1)/get(10, 0.001)
	// 100% in-lock must suffer far more at p=0.1 than 10% in-lock.
	if drop100 < drop10+0.15 {
		t.Errorf("granularity shape off: drop(100%%)=%.2f, drop(10%%)=%.2f", drop100, drop10)
	}
	if drop100 < 0.3 {
		t.Errorf("100%% in-lock case should lose roughly half its throughput at p=0.1, lost %.0f%%", drop100*100)
	}
}

func TestFig8bContentionShape(t *testing.T) {
	cfg := DefaultFig8()
	cfg.Measure = 400 * time.Millisecond
	cfg.Warmup = 100 * time.Millisecond
	rows := Fig8b(cfg, []float64{0.01, 1})
	PrintFig8b(os.Stderr, rows)
	// At low contention Rex tracks native closely.
	if rows[0].Rex < 0.6*rows[0].Native {
		t.Errorf("Rex at p=0.01 is %.0f vs native %.0f — gap too large", rows[0].Rex, rows[0].Native)
	}
	// At p=1 both collapse toward the Amdahl ceiling (10% serial fraction
	// → 1/inside-time): native must have dropped substantially.
	if rows[1].Native > 0.75*rows[0].Native {
		t.Errorf("native did not collapse at p=1: %.0f vs %.0f", rows[1].Native, rows[0].Native)
	}
}

func TestFig9QueryPlacementShape(t *testing.T) {
	cfg := Fig9Config{
		QueryThreads:  12,
		UpdateThreads: []int{2, 16},
		Cores:         24,
		Warmup:        100 * time.Millisecond,
		Measure:       400 * time.Millisecond,
		Seed:          42,
	}
	sec := Fig9(cfg, false)
	pri := Fig9(cfg, true)
	PrintFig9(os.Stderr, false, sec)
	PrintFig9(os.Stderr, true, pri)
	// Query throughput on the secondary holds up better under heavy
	// updates than on the primary (§6.5).
	secHold := sec[1].QueryTput / sec[0].QueryTput
	priHold := pri[1].QueryTput / pri[0].QueryTput
	if secHold < priHold {
		t.Errorf("placement shape off: secondary holds %.2f, primary holds %.2f", secHold, priHold)
	}
	// Updates must scale in both configurations.
	if sec[1].UpdateTput < 2*sec[0].UpdateTput {
		t.Errorf("updates did not scale: %.0f -> %.0f", sec[0].UpdateTput, sec[1].UpdateTput)
	}
}

func TestFig10FailoverTimeline(t *testing.T) {
	cfg := Fig10Config{
		Threads:         4,
		Cores:           8,
		Clients:         12,
		BucketEvery:     500 * time.Millisecond,
		Checkpoint1:     2 * time.Second,
		Checkpoint2:     5 * time.Second,
		KillAt:          6 * time.Second,
		RestartAt:       9 * time.Second,
		ElectionTimeout: time.Second,
		EndAt:           14 * time.Second,
		Seed:            42,
	}
	samples := Fig10(cfg)
	PrintFig10(os.Stderr, cfg, samples)
	bucket := func(at time.Duration) float64 {
		for _, s := range samples {
			if s.At >= at {
				return s.Throughput
			}
		}
		return -1
	}
	// The election fires a randomized 1-2x timeout after the kill: find
	// the deepest bucket in the window following it.
	minIn := func(from, to time.Duration) float64 {
		low := -1.0
		for _, s := range samples {
			if s.At >= from && s.At <= to && (low < 0 || s.Throughput < low) {
				low = s.Throughput
			}
		}
		return low
	}
	before := bucket(1500 * time.Millisecond)
	outage := minIn(cfg.KillAt, cfg.KillAt+3*time.Second)
	recovered := bucket(13 * time.Second)
	if before <= 0 {
		t.Fatalf("no throughput before the kill: %v", before)
	}
	if outage > before/3 {
		t.Errorf("no visible outage after the primary kill: before=%.0f during=%.0f", before, outage)
	}
	if recovered < before/2 {
		t.Errorf("throughput did not recover: before=%.0f after=%.0f", before, recovered)
	}
}

func TestTable1(t *testing.T) {
	PrintTable1(os.Stderr)
	if len(apps.All()) != 6 {
		t.Errorf("expected 6 applications, got %d", len(apps.All()))
	}
}

func TestEdgePruningAblation(t *testing.T) {
	r := EdgeAblation(apps.LSMKV(), 8)
	t.Logf("lsmkv edges/event pruned=%.2f unpruned=%.2f reduction=%.0f%%",
		r.EdgesPerEventPruned, r.EdgesPerEventUnpruned, r.Reduction*100)
	if r.Reduction < 0.3 {
		t.Errorf("pruning reduced edges only %.0f%%, paper reports 58-99%%", r.Reduction*100)
	}
}

func TestPartialOrderAblation(t *testing.T) {
	r := PartialOrderAblation(6)
	t.Logf("record=%v; partial: replay=%v edges=%d waited=%d; total: replay=%v edges=%d waited=%d",
		r.RecordTime, r.PartialTime, r.PartialEdges, r.PartialWaited,
		r.TotalTime, r.TotalEdges, r.TotalWaited)
	// Total ordering records more edges and replays strictly slower
	// (Fig. 4): false dependencies chain independent pollers.
	if r.TotalEdges <= r.PartialEdges {
		t.Errorf("total order should record more edges: %d vs %d", r.TotalEdges, r.PartialEdges)
	}
	if r.TotalTime <= r.PartialTime {
		t.Errorf("total order should replay slower: %v vs %v", r.TotalTime, r.PartialTime)
	}
	// Partial-order replay stays close to record time (online replay).
	if r.PartialTime > 2*r.RecordTime {
		t.Errorf("partial-order replay %v much slower than record %v", r.PartialTime, r.RecordTime)
	}
}

func TestDeltaAblation(t *testing.T) {
	r := DeltaAblation(apps.HashDB(), 4)
	t.Logf("delta ablation: %d instances, delta=%dB full=%dB", r.Instances, r.DeltaBytes, r.FullBytes)
	if r.Instances < 3 {
		t.Fatalf("too few instances measured: %d", r.Instances)
	}
	if r.FullBytes <= r.DeltaBytes {
		t.Error("full-trace proposals should cost strictly more bytes")
	}
}

func TestTraceStats(t *testing.T) {
	s := TraceStats(apps.LockServer(), 8)
	t.Logf("lockserver: bytes/event=%.1f events/req=%.1f edges/event=%.2f sync-share=%.0f%%",
		s.BytesPerEvent, s.EventsPerReq, s.EdgesPerEvent, s.SyncShare*100)
	if s.BytesPerEvent <= 0 || s.BytesPerEvent > 64 {
		t.Errorf("bytes/event = %.1f, expected a small constant (paper: ~16)", s.BytesPerEvent)
	}
	if s.EventsPerReq < 2 {
		t.Errorf("events/request = %.1f, expected at least req-begin/end plus lock events", s.EventsPerReq)
	}
}
