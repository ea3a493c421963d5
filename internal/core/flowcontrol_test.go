package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/sim"
)

// lagLimit is the replica's fixed instance-lag limit for flow control
// (lagLimitInstances in core).
const lagLimit = 64

// flowCluster starts a 3-replica cluster reporting status every
// statusEvery, with CoDel shedding off so every flow-control wait shows
// up as an admission wait rather than a shed, and returns it with its
// primary.
func flowCluster(t *testing.T, e env.Env, statusEvery time.Duration) (*cluster.Cluster, int) {
	t.Helper()
	o := defaultOpts()
	o.Template.StatusEvery = statusEvery
	o.Template.AdmissionTarget = -1
	c := cluster.New(e, newTKV, o)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	p, err := c.WaitPrimary(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

// putLoad runs closed-loop put clients against c until the returned stop
// function is called; stop waits for them to finish.
func putLoad(e env.Env, c *cluster.Cluster, clients int) (stop func()) {
	var done atomic.Bool
	g := env.NewGroup(e)
	for i := 0; i < clients; i++ {
		g.Add(1)
		cl := c.NewClient(uint64(500 + i))
		e.Go("put-client", func() {
			defer g.Done()
			for n := 0; !done.Load(); n++ {
				cl.DoTimeout([]byte(fmt.Sprintf("put k%d-%d v", i, n)), 5*time.Second)
			}
		})
	}
	return func() { done.Store(true); g.Wait() }
}

func throttled(r *core.Replica) uint64 {
	return r.Metrics().Counter("rex_admission_throttled_total")
}

// A caught-up secondary must never throttle the primary, even when the
// primary commits more than lagLimit instances per status
// period: a report's age is not lag.
func TestFlowControlIgnoresReportAge(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		const period = 200 * time.Millisecond
		c, p := flowCluster(t, e, period)
		pr := c.Replicas[p]
		before := pr.Stats().Applied
		start := e.Now()
		stop := putLoad(e, c, 8)
		e.Sleep(2 * time.Second)
		stop()
		perPeriod := float64(pr.Stats().Applied-before) / float64((e.Now()-start)/period)
		if perPeriod <= lagLimit {
			t.Fatalf("only %.0f instances committed per status period; the test needs more than %d", perPeriod, lagLimit)
		}
		t.Logf("%.0f instances committed per status period", perPeriod)
		m := pr.Metrics()
		if n := m.Counter("rex_admission_throttled_total"); n != 0 {
			t.Errorf("%d admissions throttled for lag in a healthy cluster (%.0f instances per status period)", n, perPeriod)
		}
		if n := m.Histogram("rex_admission_wait_seconds").Count; n != 0 {
			t.Errorf("%d admissions waited at the gate in a healthy cluster", n)
		}
		c.Stop()
	})
}

// A secondary that really lags — its inbound link from the primary is
// slow — throttles admission within one status period of its lag
// passing lagLimit.
func TestFlowControlThrottlesLaggingSecondary(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		const period = 20 * time.Millisecond
		c, p := flowCluster(t, e, period)
		s := (p + 1) % 3
		pr, sr := c.Replicas[p], c.Replicas[s]
		stop := putLoad(e, c, 8)
		e.Sleep(300 * time.Millisecond)
		if n := throttled(pr); n != 0 {
			t.Fatalf("%d admissions throttled before any lag", n)
		}
		c.Net.SetDelay(p, s, time.Second, 0)
		var lagAt time.Duration
		for deadline := e.Now() + time.Second; e.Now() < deadline; e.Sleep(time.Millisecond) {
			if lagAt == 0 && pr.Stats().Applied > sr.Stats().Applied+lagLimit {
				lagAt = e.Now()
			}
			if throttled(pr) > 0 {
				break
			}
		}
		if lagAt == 0 {
			t.Fatal("the slowed secondary never fell lagLimit instances behind")
		}
		if n := throttled(pr); n == 0 {
			t.Fatalf("secondary %d lags but admission was never throttled", s)
		}
		// One status period, plus the report's flight and the poll step.
		d := e.Now() - lagAt
		t.Logf("throttled %v after the lag passed the limit", d)
		if d > period+5*time.Millisecond {
			t.Errorf("throttled %v after the lag passed the limit, want within one status period (%v)", d, period)
		}
		c.Net.SetDelay(p, s, 0, 0)
		stop()
		c.Stop()
	})
}

// A lagging secondary that goes silent stops counting 8×StatusEvery
// after its last report, so a dead replica cannot stall the cluster.
func TestFlowControlForgetsSilentPeer(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		const period = 20 * time.Millisecond
		c, p := flowCluster(t, e, period)
		s := (p + 1) % 3
		pr := c.Replicas[p]
		stop := putLoad(e, c, 8)
		e.Sleep(300 * time.Millisecond)
		c.Net.SetDelay(p, s, 5*time.Second, 0)
		for deadline := e.Now() + time.Second; throttled(pr) == 0; e.Sleep(time.Millisecond) {
			if e.Now() > deadline {
				t.Fatalf("secondary %d lags but admission was never throttled", s)
			}
		}
		// Its last report said it lags; silence it there.
		c.Crash(s)
		crashed := e.Now()
		admitted := func() uint64 { return pr.Metrics().Counter("rex_requests_admitted_total") }
		// The last report arrived at most one period before the crash, so
		// the peer still counts for at least 7 more periods.
		held := admitted()
		e.Sleep(7*period - 5*time.Millisecond)
		if n := admitted() - held; n != 0 {
			t.Errorf("%d requests admitted %v after the lagging peer went silent, want the throttle held for 8×StatusEvery", n, e.Now()-crashed)
		}
		// By 8 periods after its last report (plus one re-evaluation
		// period) it must no longer count.
		e.Sleep(2*period + 5*time.Millisecond)
		if n := admitted() - held; n == 0 {
			t.Errorf("no requests admitted %v after the lagging peer went silent", e.Now()-crashed)
		}
		stop()
		c.Stop()
	})
}

// A replica restarted far behind the primary holds admission back while
// it catches up.
func TestFlowControlHoldsBackRestartedReplica(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c, p := flowCluster(t, e, 20*time.Millisecond)
		s := (p + 1) % 3
		pr := c.Replicas[p]
		stop := putLoad(e, c, 8)
		e.Sleep(300 * time.Millisecond)
		// Two seconds down leaves it far enough behind that it is still
		// catching up when its first status report arrives.
		c.Crash(s)
		e.Sleep(2 * time.Second)
		if n := throttled(pr); n != 0 {
			t.Fatalf("%d admissions throttled before the restart", n)
		}
		if err := c.Restart(s); err != nil {
			t.Fatal(err)
		}
		for deadline := e.Now() + time.Second; c.Replica(s).Stats().Applied+lagLimit < pr.Stats().Applied; e.Sleep(time.Millisecond) {
			if e.Now() > deadline {
				t.Fatalf("restarted replica %d did not catch up", s)
			}
		}
		if throttled(pr) == 0 {
			t.Errorf("restarted replica %d caught up without ever throttling admission", s)
		}
		stop()
		c.Stop()
	})
}
