package paxos

import (
	"fmt"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/transport"
)

// cluster is a test harness around n nodes on a simulated network.
type cluster struct {
	e     *sim.Env
	net   *transport.Network
	nodes []*Node
	logs  []*storage.FileLog

	mu        env.Mutex
	commits   [][]string // per node, committed values in order
	leaderEvt []string   // "become:<id>" / "new:<id>@<observer>"
}

// memLog opens a syncing WAL on a fresh in-memory disk.
func memLog(e env.Env) *storage.FileLog {
	l, _ := storage.OpenLog(e, storage.NewMemDisk(), "wal", true)
	return l
}

func newCluster(e *sim.Env, n int, seed int64) *cluster {
	return newClusterOn(e, transport.NewNetwork(e, n, time.Millisecond, seed), n, seed, nil)
}

// newClusterOn builds n nodes over net. wrap, when set, interposes on
// node i's endpoint.
func newClusterOn(e *sim.Env, net *transport.Network, n int, seed int64, wrap func(i int, ep transport.Endpoint) transport.Endpoint) *cluster {
	return newClusterWith(e, net, n, seed, wrap, nil)
}

// newClusterWith is newClusterOn with tweak, when set, adjusting node i's
// configuration before the node is built.
func newClusterWith(e *sim.Env, net *transport.Network, n int, seed int64, wrap func(i int, ep transport.Endpoint) transport.Endpoint, tweak func(i int, cfg *Config)) *cluster {
	c := &cluster{
		e:       e,
		net:     net,
		commits: make([][]string, n),
		mu:      e.NewMutex(),
	}
	for i := 0; i < n; i++ {
		i := i
		log := memLog(e)
		c.logs = append(c.logs, log)
		ep := net.Endpoint(i)
		if wrap != nil {
			ep = wrap(i, ep)
		}
		cfg := Config{
			ID:              i,
			N:               n,
			Env:             e,
			Endpoint:        ep,
			Log:             log,
			HeartbeatEvery:  20 * time.Millisecond,
			ElectionTimeout: 100 * time.Millisecond,
			Seed:            seed,
			OnCommitted: func(inst uint64, val []byte) {
				c.mu.Lock()
				c.commits[i] = append(c.commits[i], string(val))
				c.mu.Unlock()
			},
			OnBecomeLeader: func() {
				c.mu.Lock()
				c.leaderEvt = append(c.leaderEvt, fmt.Sprintf("become:%d", i))
				c.mu.Unlock()
			},
			OnNewLeader: func(l int) {
				c.mu.Lock()
				c.leaderEvt = append(c.leaderEvt, fmt.Sprintf("new:%d@%d", l, i))
				c.mu.Unlock()
			},
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			panic(err)
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

func (c *cluster) start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

func (c *cluster) leader() int {
	for i, n := range c.nodes {
		if n.IsLeader() {
			return i
		}
	}
	return -1
}

// waitLeader polls until exactly one node believes it leads.
func (c *cluster) waitLeader(t *testing.T, timeout time.Duration) int {
	t.Helper()
	deadline := c.e.Now() + timeout
	for c.e.Now() < deadline {
		leaders := 0
		id := -1
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

func (c *cluster) waitCommits(t *testing.T, node, want int, timeout time.Duration) {
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

func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

func TestElectionAndCommit(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 1)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		for i := 0; i < 10; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		for i := 0; i < 3; i++ {
			c.waitCommits(t, i, 10, 2*time.Second)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := 0; i < 3; i++ {
			for j := 0; j < 10; j++ {
				if c.commits[i][j] != fmt.Sprintf("v%d", j) {
					t.Fatalf("node %d commit %d = %q", i, j, c.commits[i][j])
				}
			}
		}
		c.stop()
	})
}

func TestSingleNodeCluster(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		c := newCluster(e, 1, 2)
		c.start()
		lead := c.waitLeader(t, time.Second)
		if lead != 0 {
			t.Fatalf("leader = %d", lead)
		}
		c.nodes[0].Propose([]byte("solo"))
		c.waitCommits(t, 0, 1, time.Second)
		c.stop()
	})
}

func TestLeaderFailover(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 3)
		c.start()
		old := c.waitLeader(t, 2*time.Second)
		c.nodes[old].Propose([]byte("before"))
		for i := 0; i < 3; i++ {
			c.waitCommits(t, i, 1, time.Second)
		}
		// Crash the leader (network isolation).
		c.net.Isolate(old, true)
		// A new leader must emerge among the remaining two.
		deadline := c.e.Now() + 3*time.Second
		newLead := -1
		for c.e.Now() < deadline {
			for i, n := range c.nodes {
				if i != old && n.IsLeader() {
					newLead = i
				}
			}
			if newLead >= 0 {
				break
			}
			e.Sleep(10 * time.Millisecond)
		}
		if newLead < 0 {
			t.Fatal("no new leader after isolating the old one")
		}
		c.nodes[newLead].Propose([]byte("after"))
		for _, i := range []int{newLead, 3 - old - newLead} {
			c.waitCommits(t, i, 2, 2*time.Second)
		}
		// Reconnect the old leader: it must step down and catch up.
		c.net.Isolate(old, false)
		c.waitCommits(t, old, 2, 3*time.Second)
		c.mu.Lock()
		got := append([]string(nil), c.commits[old]...)
		c.mu.Unlock()
		if got[0] != "before" || got[1] != "after" {
			t.Fatalf("old leader commits = %v", got)
		}
		if c.nodes[old].IsLeader() {
			t.Fatal("old leader still thinks it leads after rejoining")
		}
		c.stop()
	})
}

func TestCommitUnderMessageLoss(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 4)
		c.net.SetLoss(0.10)
		c.net.SetJitter(2 * time.Millisecond)
		c.start()
		lead := c.waitLeader(t, 5*time.Second)
		for i := 0; i < 20; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		// Retransmissions must push everything through. The leader may
		// change under loss; proposals enqueued at a deposed leader are
		// dropped by design, so only require a prefix to commit everywhere
		// consistently.
		c.waitCommits(t, lead, 1, 10*time.Second)
		e.Sleep(2 * time.Second)
		c.mu.Lock()
		defer c.mu.Unlock()
		min := len(c.commits[0])
		for i := 1; i < 3; i++ {
			if len(c.commits[i]) < min {
				min = len(c.commits[i])
			}
		}
		if min == 0 {
			t.Fatal("nothing committed under 10% loss")
		}
		for i := 1; i < 3; i++ {
			for j := 0; j < min; j++ {
				if c.commits[i][j] != c.commits[0][j] {
					t.Fatalf("divergent commit %d: %q vs %q", j, c.commits[i][j], c.commits[0][j])
				}
			}
		}
		c.stop()
	})
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 5)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		// Cut the leader off: it keeps its leader flag briefly but cannot
		// commit anything new.
		c.net.Isolate(lead, true)
		c.nodes[lead].Propose([]byte("doomed"))
		e.Sleep(500 * time.Millisecond)
		c.mu.Lock()
		doomed := false
		for _, v := range c.commits[lead] {
			if v == "doomed" {
				doomed = true
			}
		}
		c.mu.Unlock()
		if doomed {
			t.Fatal("isolated leader committed a value")
		}
		c.stop()
	})
}

func TestRecoveryFromLog(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 6)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		for i := 0; i < 5; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		for i := 0; i < 3; i++ {
			c.waitCommits(t, i, 5, 2*time.Second)
		}
		c.stop()
		// Restart node 0 from its log: recovered chosen values must match.
		n0, err := NewNode(Config{
			ID: 0, N: 3, Env: e,
			Endpoint:        c.net.Endpoint(0),
			Log:             c.logs[0],
			HeartbeatEvery:  20 * time.Millisecond,
			ElectionTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		base, vals := n0.Chosen()
		if base != 0 || len(vals) != 5 {
			t.Fatalf("recovered base=%d n=%d, want 0,5", base, len(vals))
		}
		for i, v := range vals {
			if string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("recovered[%d] = %q", i, v)
			}
		}
	})
}

func TestCompaction(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 7)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		for i := 0; i < 8; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		c.waitCommits(t, lead, 8, 2*time.Second)
		c.nodes[lead].Compact(5)
		e.Sleep(100 * time.Millisecond)
		base, vals := c.nodes[lead].Chosen()
		if base != 5 || len(vals) != 3 {
			t.Fatalf("after compact: base=%d n=%d, want 5,3", base, len(vals))
		}
		// The compacted node keeps committing new values.
		c.nodes[lead].Propose([]byte("v8"))
		c.waitCommits(t, lead, 9, 2*time.Second)
		c.stop()
	})
}

func TestDeterministicElections(t *testing.T) {
	run := func() []string {
		var events []string
		e := sim.New(4)
		e.Run(func() {
			c := newCluster(e, 3, 42)
			c.start()
			lead := c.waitLeader(t, 2*time.Second)
			c.nodes[lead].Propose([]byte("x"))
			for i := 0; i < 3; i++ {
				c.waitCommits(t, i, 1, 2*time.Second)
			}
			c.mu.Lock()
			events = append([]string(nil), c.leaderEvt...)
			c.mu.Unlock()
			c.stop()
		})
		return events
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("elections not deterministic:\n%v\n%v", a, b)
	}
}

func TestProposalAtFollowerIsDropped(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		c := newCluster(e, 3, 8)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		follower := (lead + 1) % 3
		c.nodes[follower].Propose([]byte("nope"))
		e.Sleep(300 * time.Millisecond)
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := 0; i < 3; i++ {
			for _, v := range c.commits[i] {
				if v == "nope" {
					t.Fatal("follower proposal was committed")
				}
			}
		}
		c.stop()
	})
}

func TestBurstProposalsCommitInOrder(t *testing.T) {
	// A burst queued faster than one instance commits still goes through
	// one open instance at a time, in order, with identical sequences on
	// every replica.
	e := sim.New(4)
	e.Run(func() {
		const n = 3
		c := newClusterOn(e, transport.NewNetwork(e, n, 2*time.Millisecond, 21), n, 21, nil)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		for i := 0; i < 40; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		for i := 0; i < 3; i++ {
			c.waitCommits(t, i, 40, 5*time.Second)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := 0; i < 3; i++ {
			for j := 0; j < 40; j++ {
				if c.commits[i][j] != fmt.Sprintf("v%d", j) {
					t.Fatalf("node %d commit %d = %q", i, j, c.commits[i][j])
				}
			}
		}
		c.stop()
	})
}

func TestFailoverMidBurstLeavesNoHole(t *testing.T) {
	// Kill the leader mid-burst: the new leader must re-propose every
	// possibly-committed instance before announcing, and no committed
	// value may be lost or reordered.
	e := sim.New(4)
	e.Run(func() {
		const n = 3
		c := newClusterOn(e, transport.NewNetwork(e, n, 2*time.Millisecond, 31), n, 31, nil)
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		for i := 0; i < 20; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", i)))
		}
		// Kill the leader while proposals are still in flight.
		e.Sleep(3 * time.Millisecond)
		c.net.Isolate(lead, true)
		// A new leader emerges and the survivors converge on a consistent
		// prefix (some tail proposals may be lost with the leader — that is
		// allowed; divergence or holes are not).
		deadline := e.Now() + 5*time.Second
		for e.Now() < deadline {
			newLead := -1
			for i, nd := range c.nodes {
				if i != lead && nd.IsLeader() {
					newLead = i
				}
			}
			if newLead >= 0 {
				break
			}
			e.Sleep(10 * time.Millisecond)
		}
		e.Sleep(500 * time.Millisecond)
		c.mu.Lock()
		defer c.mu.Unlock()
		a, b := c.commits[(lead+1)%3], c.commits[(lead+2)%3]
		min := len(a)
		if len(b) < min {
			min = len(b)
		}
		for j := 0; j < min; j++ {
			if a[j] != b[j] {
				t.Fatalf("survivors diverge at %d: %q vs %q", j, a[j], b[j])
			}
		}
		// Every committed value must be a v<i> in order without holes.
		for j, v := range a[:min] {
			if v != fmt.Sprintf("v%d", j) {
				t.Fatalf("hole or reorder at %d: %q", j, v)
			}
		}
		c.stop()
	})
}

// acceptGuard interposes on a node's endpoint and checks every outgoing
// mAccept against the node's own chosen sequence at send time.
type acceptGuard struct {
	transport.Endpoint
	node    func() *Node
	accepts *int
	bad     *[]string
}

func (g *acceptGuard) Send(to int, payload []byte) {
	if m, err := decodeMessage(payload); err == nil && m.Kind == mAccept {
		*g.accepts++
		if seq := g.node().ChosenSeq(); m.Inst > seq {
			*g.bad = append(*g.bad, fmt.Sprintf("node %d sent accept for %d at chosen seq %d", g.ID(), m.Inst, seq))
		}
	}
	g.Endpoint.Send(to, payload)
}

func TestAcceptOnlyPastChosenSeq(t *testing.T) {
	// The §3.1 invariant: a leader opens instance i+1 only after it has
	// learned that instance i is chosen, so no node ever sends an accept
	// for an instance past its own chosen sequence — not under loss, not
	// across a leader isolation and the takeover's re-proposals.
	e := sim.New(4)
	e.Run(func() {
		const n = 3
		var accepts int
		var bad []string
		var c *cluster
		c = newClusterOn(e, transport.NewNetwork(e, n, 2*time.Millisecond, 41), n, 41,
			func(i int, ep transport.Endpoint) transport.Endpoint {
				return &acceptGuard{Endpoint: ep, node: func() *Node { return c.nodes[i] }, accepts: &accepts, bad: &bad}
			})
		c.net.SetLoss(0.05)
		c.start()
		lead := c.waitLeader(t, 5*time.Second)
		for i := 0; i < 30; i++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("a%d", i)))
		}
		e.Sleep(20 * time.Millisecond)
		c.net.Isolate(lead, true)
		next := -1
		for deadline := e.Now() + 5*time.Second; next < 0 && e.Now() < deadline; e.Sleep(10 * time.Millisecond) {
			for i, nd := range c.nodes {
				if i != lead && nd.IsLeader() {
					next = i
				}
			}
		}
		if next < 0 {
			t.Fatal("no new leader after isolating the old one")
		}
		for i := 0; i < 30; i++ {
			c.nodes[next].Propose([]byte(fmt.Sprintf("b%d", i)))
		}
		e.Sleep(time.Second)
		c.net.Isolate(lead, false)
		e.Sleep(2 * time.Second)
		c.stop()

		for _, b := range bad {
			t.Error(b)
		}
		if accepts < 60 {
			t.Fatalf("only %d accepts sent; the burst did not exercise phase 2", accepts)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		t.Logf("%d accepts sent; commits per node: %d %d %d", accepts, len(c.commits[0]), len(c.commits[1]), len(c.commits[2]))
		for i := range c.commits {
			for j := range c.commits[i] {
				if j < len(c.commits[next]) && c.commits[i][j] != c.commits[next][j] {
					t.Fatalf("node %d diverges at %d: %q vs %q", i, j, c.commits[i][j], c.commits[next][j])
				}
			}
		}
	})
}
