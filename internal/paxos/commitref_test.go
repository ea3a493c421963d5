package paxos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rex/internal/reconfig"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/transport"
)

// Commit by reference: the leader tells the voters of an instance's
// configuration only (instance, ballot); each commits the value it
// accepted at that ballot, or learns the value when it holds none.

func TestCommitRefWithOtherBallotLearns(t *testing.T) {
	// A follower holding a value accepted at an older ballot must not
	// commit it on a reference to a newer ballot: it asks the sender, and
	// commits what the sender says was chosen.
	e := sim.New(1)
	e.Run(func() {
		nw := transport.NewNetwork(e, 3, time.Millisecond, 1)
		var got []string
		n, err := NewNode(Config{
			ID: 1, N: 3, Env: e, Endpoint: nw.Endpoint(1), Log: memLog(e),
			HeartbeatEvery: 20 * time.Millisecond, ElectionTimeout: 100 * time.Millisecond,
			OnCommitted: func(_ uint64, val []byte) { got = append(got, string(val)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		n.accepted[0] = acceptedEntry{Inst: 0, Ballot: Ballot{Round: 1, Node: 0}, Val: []byte("old")}
		n.handleMessage(&message{Kind: mCommitRef, Ballot: Ballot{Round: 2, Node: 2}, Inst: 0, from: 2})
		if n.chosenSeq != 0 {
			t.Fatalf("committed on a reference to another ballot: chosenSeq=%d", n.chosenSeq)
		}
		if len(n.outbox) != 1 || n.outbox[0].to != 2 || n.outbox[0].m.Kind != mLearn || n.outbox[0].m.FromInst != 0 {
			t.Fatalf("want one learn request to 2 from instance 0, outbox = %+v", n.outbox)
		}
		if n.cfg.Metrics.LearnReqs.Value() != 1 {
			t.Errorf("LearnReqs = %d, want 1", n.cfg.Metrics.LearnReqs.Value())
		}
		n.outbox = n.outbox[:0]
		n.handleMessage(&message{Kind: mLearnReply, FromInst: 0, Vals: [][]byte{[]byte("new")}, from: 2})
		n.flushBatch()
		if len(got) != 1 || got[0] != "new" {
			t.Fatalf("committed %q, want [new]", got)
		}

		// The matching ballot commits the follower's own copy, sending nothing.
		n.accepted[1] = acceptedEntry{Inst: 1, Ballot: Ballot{Round: 2, Node: 2}, Val: []byte("mine")}
		n.handleMessage(&message{Kind: mCommitRef, Ballot: Ballot{Round: 2, Node: 2}, Inst: 1, from: 2})
		n.flushBatch()
		if len(got) != 2 || got[1] != "mine" || n.cfg.Metrics.LearnReqs.Value() != 1 {
			t.Fatalf("committed %q with %d learn requests, want [new mine] with 1", got, n.cfg.Metrics.LearnReqs.Value())
		}
	})
}

// acceptDropper drops the first Accept its node sends to `to` for each
// instance in drop.
type acceptDropper struct {
	transport.Endpoint
	to   int
	drop map[uint64]bool
}

func (d *acceptDropper) Send(to int, payload []byte) {
	if m, err := decodeMessage(payload); err == nil && m.Kind == mAccept && to == d.to && d.drop[m.Inst] {
		delete(d.drop, m.Inst)
		return
	}
	d.Endpoint.Send(to, payload)
}

func TestCommitRefAfterDroppedAcceptLearns(t *testing.T) {
	// A voter whose Accept was lost gets a commit reference for a value it
	// never held: it learns the value, and every node ends with the same
	// chosen sequence.
	e := sim.New(4)
	e.Run(func() {
		const n = 3
		droppers := make([]*acceptDropper, n)
		c := newClusterOn(e, transport.NewNetwork(e, n, time.Millisecond, 51), n, 51,
			func(i int, ep transport.Endpoint) transport.Endpoint {
				droppers[i] = &acceptDropper{Endpoint: ep, to: -1}
				return droppers[i]
			})
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		victim := (lead + 1) % n
		droppers[lead].to = victim
		droppers[lead].drop = map[uint64]bool{3: true, 7: true}
		for i := 0; i < 10; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		for i := 0; i < n; i++ {
			c.waitCommits(t, i, 10, 2*time.Second)
		}
		c.stop()
		if len(droppers[lead].drop) != 0 {
			t.Fatalf("accepts for %v were never sent", droppers[lead].drop)
		}
		if c.nodes[victim].cfg.Metrics.LearnReqs.Value() == 0 {
			t.Error("the voter that missed accepts never learned")
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := 0; i < n; i++ {
			for j := 0; j < 10; j++ {
				if c.commits[i][j] != fmt.Sprintf("v%d", j) {
					t.Fatalf("node %d commit %d = %q", i, j, c.commits[i][j])
				}
			}
		}
	})
}

func TestLearnerGetsCommittedValues(t *testing.T) {
	// A learner never accepts, so commits reach it with the value: over a
	// lossless run it never has to ask for one.
	e := sim.New(4)
	e.Run(func() {
		const n = 4
		m := reconfig.Membership{Voters: []int{0, 1, 2}, Learners: []int{3}, Alpha: reconfig.DefaultAlpha}
		c := newClusterWith(e, transport.NewNetwork(e, n, time.Millisecond, 61), n, 61, nil,
			func(_ int, cfg *Config) { cfg.Members = &m })
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		const commits = 100
		for i := 0; i < commits; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		c.waitCommits(t, 3, commits, 5*time.Second)
		c.stop()
		if got := c.nodes[3].cfg.Metrics.LearnReqs.Value(); got != 0 {
			t.Errorf("learner sent %d learn requests, want 0", got)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for j := 0; j < commits; j++ {
			if c.commits[3][j] != fmt.Sprintf("v%d", j) {
				t.Fatalf("learner commit %d = %q", j, c.commits[3][j])
			}
		}
	})
}

// acceptFailLog fails the first batch holding an accepted record once
// armed.
type acceptFailLog struct {
	*storage.FileLog
	armed bool
}

var errInjected = errors.New("injected write failure")

func (l *acceptFailLog) AppendBatch(recs [][]byte) error {
	if l.armed {
		for _, r := range recs {
			if len(r) > 0 && r[0] == recAccepted {
				return errInjected
			}
		}
	}
	return l.FileLog.AppendBatch(recs)
}

func TestLeaderAcceptFaultCommitsNothing(t *testing.T) {
	// The leader's own accepted record must be durable before it counts
	// its own vote: when that write fails the leader goes silent, and
	// neither it nor a follower reports the value committed.
	e := sim.New(4)
	e.Run(func() {
		const n = 3
		logs := make([]*acceptFailLog, n)
		faults := make([]error, n)
		c := newClusterWith(e, transport.NewNetwork(e, n, time.Millisecond, 71), n, 71, nil,
			func(i int, cfg *Config) {
				logs[i] = &acceptFailLog{FileLog: memLog(e)}
				cfg.Log = logs[i]
				cfg.OnStorageFault = func(err error) { faults[i] = err }
			})
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		c.nodes[lead].Propose([]byte("before"))
		for i := 0; i < n; i++ {
			c.waitCommits(t, i, 1, time.Second)
		}
		logs[lead].armed = true
		c.nodes[lead].Propose([]byte("doomed"))
		// Well inside the election timeout: no new leader can have
		// re-proposed the followers' accepted copy yet.
		e.Sleep(50 * time.Millisecond)
		if !errors.Is(faults[lead], errInjected) {
			t.Fatalf("leader storage fault = %v, want the injected failure", faults[lead])
		}
		c.mu.Lock()
		for i := 0; i < n; i++ {
			for _, v := range c.commits[i] {
				if v == "doomed" {
					t.Errorf("node %d committed a value whose leader failed to persist its accept", i)
				}
			}
		}
		c.mu.Unlock()
		for i, nd := range c.nodes {
			if i != lead {
				nd.Stop()
			}
		}
	})
}
