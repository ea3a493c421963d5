package paxos

import (
	"testing"
	"time"

	"rex/internal/sim"
	"rex/internal/transport"
)

func TestLeaseAcquiredByLeaderOnly(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 11)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		// A couple of heartbeat rounds bank the grants.
		deadline := e.Now() + 2*time.Second
		for !c.nodes[lead].LeaseValid() && e.Now() < deadline {
			e.Sleep(5 * time.Millisecond)
		}
		if !c.nodes[lead].LeaseValid() {
			t.Fatal("leader never acquired a read lease")
		}
		for i, n := range c.nodes {
			if i != lead && n.LeaseValid() {
				t.Fatalf("follower %d claims a lease", i)
			}
		}
		c.stop()
	})
}

func TestLeaseFencing(t *testing.T) {
	// The safety property: the old leader's lease must be invalid (on its
	// own clock) before any new leader can complete an election. Isolate
	// the leader and watch both conditions at fine granularity.
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 12)
		c.start()
		old := c.waitLeader(t, 2*time.Second)
		deadline := e.Now() + 2*time.Second
		for !c.nodes[old].LeaseValid() && e.Now() < deadline {
			e.Sleep(5 * time.Millisecond)
		}
		if !c.nodes[old].LeaseValid() {
			t.Fatal("leader never acquired a read lease")
		}
		c.net.Isolate(old, true)
		// Poll every simulated millisecond: whenever a new leader exists,
		// the isolated leader's lease must already have expired.
		deadline = e.Now() + 5*time.Second
		sawNewLeader := false
		for e.Now() < deadline {
			newLead := -1
			for i, n := range c.nodes {
				if i != old && n.IsLeader() {
					newLead = i
				}
			}
			if newLead >= 0 {
				sawNewLeader = true
				if c.nodes[old].LeaseValid() {
					t.Fatalf("node %d leads while old leader %d still holds its lease", newLead, old)
				}
			}
			e.Sleep(time.Millisecond)
		}
		if !sawNewLeader {
			t.Fatal("no new leader emerged after isolating the old one")
		}
		c.stop()
	})
}

func TestLeaseFailoverLiveness(t *testing.T) {
	// Grant suppression must delay, not prevent, elections: after the
	// leader dies, a replacement emerges within a few timeouts.
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 13)
		c.start()
		old := c.waitLeader(t, 2*time.Second)
		e.Sleep(200 * time.Millisecond) // leases well established
		c.net.Isolate(old, true)
		start := e.Now()
		deadline := start + 3*time.Second
		for e.Now() < deadline {
			for i, n := range c.nodes {
				if i != old && n.IsLeader() {
					c.stop()
					return
				}
			}
			e.Sleep(5 * time.Millisecond)
		}
		t.Fatal("no new leader within 3s of isolating the lease holder")
	})
}

func TestLeaseDisabled(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		const n = 3
		net := transport.NewNetwork(e, n, time.Millisecond, 14)
		var nodes []*Node
		for i := 0; i < n; i++ {
			node, err := NewNode(Config{
				ID: i, N: n, Env: e,
				Endpoint:        net.Endpoint(i),
				Log:             memLog(e),
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				LeaseDuration:   -1,
				Seed:            14,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node)
		}
		for _, nd := range nodes {
			nd.Start()
		}
		deadline := e.Now() + 2*time.Second
		lead := -1
		for e.Now() < deadline && lead < 0 {
			for i, nd := range nodes {
				if nd.IsLeader() {
					lead = i
				}
			}
			e.Sleep(5 * time.Millisecond)
		}
		if lead < 0 {
			t.Fatal("no leader with leases disabled")
		}
		e.Sleep(200 * time.Millisecond)
		if nodes[lead].LeaseValid() {
			t.Fatal("LeaseValid with leases disabled")
		}
		for _, nd := range nodes {
			nd.Stop()
		}
	})
}
