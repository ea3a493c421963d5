package bench

import (
	"testing"
	"time"

	"rex/internal/apps"
)

func shortCfg(app apps.App, threads int) RunConfig {
	return RunConfig{
		App:      app,
		Threads:  threads,
		Cores:    24,
		Warmup:   100 * time.Millisecond,
		Measure:  400 * time.Millisecond,
		SetupCap: 100,
	}
}

func TestRunnersProduceSaneThroughput(t *testing.T) {
	app := apps.Thumbnail()
	native := RunNative(shortCfg(app, 8))
	rex := RunRex(shortCfg(app, 8))
	rsm := RunRSM(shortCfg(app, 8))
	t.Logf("thumbnail@8: native=%.0f rex=%.0f rsm=%.0f waited/s=%.0f bytes/ev=%.1f",
		native.Throughput, rex.Throughput, rsm.Throughput, rex.WaitedPerSec, rex.BytesPerEvent)
	if native.Throughput <= 0 || rex.Throughput <= 0 || rsm.Throughput <= 0 {
		t.Fatalf("zero throughput: native=%v rex=%v rsm=%v", native, rex, rsm)
	}
	// The paper's headline: Rex beats serialized RSM on multi-core and is
	// within a modest factor of native.
	if rex.Throughput < 1.5*rsm.Throughput {
		t.Errorf("rex (%.0f) not meaningfully above RSM (%.0f)", rex.Throughput, rsm.Throughput)
	}
	if rex.Throughput < 0.4*native.Throughput {
		t.Errorf("rex (%.0f) too far below native (%.0f)", rex.Throughput, native.Throughput)
	}
}

func TestRexScalesWithThreads(t *testing.T) {
	app := apps.Thumbnail()
	one := RunRex(shortCfg(app, 1))
	eight := RunRex(shortCfg(app, 8))
	t.Logf("thumbnail rex: 1thr=%.0f 8thr=%.0f", one.Throughput, eight.Throughput)
	if eight.Throughput < 3*one.Throughput {
		t.Errorf("8 threads (%.0f) < 3x 1 thread (%.0f): Rex not preserving parallelism",
			eight.Throughput, one.Throughput)
	}
}

// TestDivergedRunIsRefused corrupts one replica's state once a measured
// run's fleet has stopped: the check every run ends in must refuse the
// run with a CheckFailure that names its point, instead of letting it
// report a number.
func TestDivergedRunIsRefused(t *testing.T) {
	defer func() {
		f, ok := recover().(*CheckFailure)
		if !ok || f.Point != "corrupted run" || len(f.Violations) == 0 {
			t.Fatalf("got %v, want a CheckFailure for the corrupted run", f)
		}
		t.Logf("refused: %v", f)
	}()
	app := newMicroApp(4, 10, 100*time.Microsecond)
	simulate(4, "corrupted run", func(r *rig) {
		c, p := r.group(app, options(app, 2, 4, 1))
		r.clients(4, 0, func(i int) op {
			return appOp(app, 1, i, false, via(c.NewClient(uint64(100+i))))
		})
		r.Env.Sleep(50 * time.Millisecond)
		r.Stop()
		r.Wait()
		c.Replica((p + 1) % 3).StateMachineForTest().(*microSM).counters[0]++
	})
	t.Fatal("a run with diverged replicas passed its check")
}
