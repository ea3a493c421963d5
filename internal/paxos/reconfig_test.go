package paxos

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/reconfig"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/transport"
)

// voteTap wraps an Endpoint and counts outgoing quorum-forming messages
// (promises and accept acks) — the definition of "casting a vote". WAL
// records are too blunt a proxy: a learner legitimately persists the
// leader's ballot from heartbeats without ever voting.
type voteTap struct {
	transport.Endpoint
	votes *atomic.Int64
}

func (tp *voteTap) Send(to int, payload []byte) {
	if len(payload) > 0 {
		if k := msgKind(payload[0]); k == mPromise || k == mAccepted {
			tp.votes.Add(1)
		}
	}
	tp.Endpoint.Send(to, payload)
}

// rcluster is the reconfiguration test harness: n nodes whose initial
// membership view can be narrower than n (extra nodes start outside the
// cluster, as joiners do), with removal and membership activations
// captured per node.
type rcluster struct {
	e     *sim.Env
	net   *transport.Network
	nodes []*Node
	logs  []*storage.FileLog

	mu      env.Mutex
	commits [][]string
	removed []bool
	epochs  []uint64 // latest membership epoch activated per node
	votes   []*atomic.Int64
}

// newRCluster builds n nodes of which only the first `members` are in the
// epoch-0 membership; the rest start with the same narrow view and must be
// admitted by a committed change before they matter.
func newRCluster(e *sim.Env, n, members int, seed int64) *rcluster {
	c := &rcluster{
		e:       e,
		net:     transport.NewNetwork(e, n, time.Millisecond, seed),
		commits: make([][]string, n),
		removed: make([]bool, n),
		epochs:  make([]uint64, n),
		mu:      e.NewMutex(),
	}
	base := reconfig.Initial(members)
	for i := 0; i < n; i++ {
		i := i
		log := memLog(e)
		c.logs = append(c.logs, log)
		votes := new(atomic.Int64)
		c.votes = append(c.votes, votes)
		m := base.Clone()
		node, err := NewNode(Config{
			ID:              i,
			N:               members,
			Members:         &m,
			Env:             e,
			Endpoint:        &voteTap{Endpoint: c.net.Endpoint(i), votes: votes},
			Log:             log,
			HeartbeatEvery:  20 * time.Millisecond,
			ElectionTimeout: 100 * time.Millisecond,
			Seed:            seed,
			OnCommitted: func(inst uint64, val []byte) {
				if reconfig.IsMeta(val) {
					return
				}
				c.mu.Lock()
				c.commits[i] = append(c.commits[i], string(val))
				c.mu.Unlock()
			},
			OnMembership: func(m reconfig.Membership) {
				c.mu.Lock()
				if m.Epoch > c.epochs[i] {
					c.epochs[i] = m.Epoch
				}
				c.mu.Unlock()
			},
			OnRemoved: func(reconfig.Membership) {
				c.mu.Lock()
				c.removed[i] = true
				c.mu.Unlock()
			},
		})
		if err != nil {
			panic(err)
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

func (c *rcluster) start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

func (c *rcluster) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

func (c *rcluster) waitLeader(t *testing.T, timeout time.Duration) int {
	t.Helper()
	deadline := c.e.Now() + timeout
	for c.e.Now() < deadline {
		leaders, id := 0, -1
		for i, n := range c.nodes {
			if n.IsLeader() {
				leaders++
				id = i
			}
		}
		if leaders == 1 {
			return id
		}
		c.e.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no single leader within %v", timeout)
	return -1
}

func (c *rcluster) waitCommits(t *testing.T, node, want int, timeout time.Duration) {
	t.Helper()
	deadline := c.e.Now() + timeout
	for c.e.Now() < deadline {
		c.mu.Lock()
		got := len(c.commits[node])
		c.mu.Unlock()
		if got >= want {
			return
		}
		c.e.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("node %d committed %d values within %v, want %d", node, len(c.commits[node]), timeout, want)
}

// waitEpochActive blocks until node i has activated membership epoch e.
func (c *rcluster) waitEpochActive(t *testing.T, node int, epoch uint64, timeout time.Duration) {
	t.Helper()
	deadline := c.e.Now() + timeout
	for c.e.Now() < deadline {
		c.mu.Lock()
		got := c.epochs[node]
		c.mu.Unlock()
		if got >= epoch {
			return
		}
		c.e.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("node %d activated epoch %d within %v, want %d", node, c.epochs[node], timeout, epoch)
}

func (c *rcluster) isRemoved(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removed[i]
}

// acceptRecords counts accept records in node i's WAL — durable evidence
// the node voted in phase 2. (Promise records are not counted: heartbeats
// legitimately persist the leader's ballot on learners too.)
func (c *rcluster) acceptRecords(i int) int {
	recs, err := c.logs[i].Records()
	if err != nil {
		panic(err)
	}
	accepts := 0
	for _, rec := range recs {
		if len(rec) > 0 && rec[0] == recAccepted {
			accepts++
		}
	}
	return accepts
}

// TestStaleEpochRejected: a voter that misses a membership change keeps
// campaigning with its stale epoch; the others must refuse its prepares
// with an epoch nack (never vote for it), and the nack must teach it the
// configuration that removed it, parking it via OnRemoved.
func TestStaleEpochRejected(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newRCluster(e, 3, 3, 21)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		victim, other := -1, -1
		for i := 0; i < 3; i++ {
			if i != lead {
				if victim < 0 {
					victim = i
				} else {
					other = i
				}
			}
		}
		// The victim stops hearing anything before the change commits.
		c.net.Isolate(victim, true)

		m2, err := reconfig.Initial(3).WithRemove(victim)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[lead].Propose(reconfig.EncodeValue(m2))
		// Both surviving voters must have activated the new epoch before the
		// victim comes back, or a not-yet-activated voter could still promise
		// to its stale campaign.
		c.waitEpochActive(t, lead, m2.Epoch, 5*time.Second)
		c.waitEpochActive(t, other, m2.Epoch, 5*time.Second)

		// Back from the partition, the victim's election campaign carries
		// the stale epoch. It must never win; the nacks must teach it the
		// new config, and absence from it must fire OnRemoved.
		c.net.Isolate(victim, false)
		deadline := c.e.Now() + 5*time.Second
		for c.e.Now() < deadline && !c.isRemoved(victim) {
			if c.nodes[victim].IsLeader() {
				t.Fatal("removed node won an election on a stale epoch")
			}
			c.e.Sleep(5 * time.Millisecond)
		}
		if !c.isRemoved(victim) {
			t.Fatal("stale node was never told it is removed")
		}
		if c.nodes[victim].IsLeader() {
			t.Fatal("removed node believes it leads")
		}
		c.stop()
	})
}

// TestQuorumSwitchesAtHorizon: after a replace activates, the cluster must
// commit with the NEW quorum — the surviving old voter plus the admitted
// node — even when the replaced voter (and one more old voter) are gone.
func TestQuorumSwitchesAtHorizon(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newRCluster(e, 4, 3, 22)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		victim := -1
		for i := 0; i < 3; i++ {
			if i != lead {
				victim = i
			}
		}
		// One committed change: drop the victim and admit node 3 straight
		// to voter (the With* builders each bump the epoch; collapse back to
		// a single step since the intermediates are never committed).
		m := reconfig.Initial(3)
		m2, err := m.WithRemove(victim)
		if err != nil {
			t.Fatal(err)
		}
		m2, err = m2.WithAdd(3, "")
		if err != nil {
			t.Fatal(err)
		}
		m2, err = m2.WithPromote(3)
		if err != nil {
			t.Fatal(err)
		}
		m2.Epoch = m.Epoch + 1
		c.nodes[lead].Propose(reconfig.EncodeValue(m2))

		// Activation needs chosenSeq to cross the horizon (leader padding
		// drives it even with no client values), and the new voter must
		// catch up before it can be useful to quorums.
		c.waitEpochActive(t, lead, m2.Epoch, 5*time.Second)
		c.waitEpochActive(t, 3, m2.Epoch, 5*time.Second)

		// Kill the replaced voter. Old quorums {lead, victim, other} are
		// now impossible without `other`; new quorums {lead, other, 3}
		// must work even with ONLY lead and 3 — prove it by also killing
		// the remaining old voter.
		other := 3 - lead - victim // the third original voter (0+1+2 == 3)
		c.net.Isolate(victim, true)
		c.net.Isolate(other, true)
		for i := 0; i < 5; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("post-%d", i)))
		}
		c.waitCommits(t, lead, 5, 5*time.Second)
		c.waitCommits(t, 3, 5, 5*time.Second)
		c.stop()
	})
}

// TestJoinerNeverVotesBeforePromotion: a node admitted as a learner must
// cast no promise or accept votes — its WAL stays free of vote records —
// until a second committed change promotes it to voter, after which it
// must participate.
func TestJoinerNeverVotesBeforePromotion(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newRCluster(e, 4, 3, 23)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)

		// Admit node 3 as a learner.
		m := reconfig.Initial(3)
		m2, err := m.WithAdd(3, "")
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[lead].Propose(reconfig.EncodeValue(m2))
		c.waitEpochActive(t, 3, m2.Epoch, 5*time.Second)

		// Load while it is a learner: it must follow commits without ever
		// voting.
		for i := 0; i < 10; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("pre-%d", i)))
		}
		c.waitCommits(t, 3, 10, 5*time.Second)
		if c.nodes[3].IsLeader() {
			t.Fatal("learner believes it leads")
		}
		if v := c.votes[3].Load(); v != 0 {
			t.Fatalf("learner sent %d promise/accepted messages before promotion", v)
		}
		if a := c.acceptRecords(3); a != 0 {
			t.Fatalf("learner persisted %d accept votes before promotion", a)
		}

		// Promote, then load again: now it must vote.
		m3, err := m2.WithPromote(3)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[lead].Propose(reconfig.EncodeValue(m3))
		c.waitEpochActive(t, 3, m3.Epoch, 5*time.Second)
		for i := 0; i < 10; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("post-%d", i)))
		}
		c.waitCommits(t, 3, 20, 5*time.Second)
		deadline := c.e.Now() + 5*time.Second
		for c.e.Now() < deadline && c.votes[3].Load() == 0 {
			c.e.Sleep(5 * time.Millisecond)
		}
		if v := c.votes[3].Load(); v == 0 {
			t.Fatal("promoted voter cast no votes")
		}
		c.stop()
	})
}
