package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"rex/internal/apps"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/server"
	"rex/internal/storage"
	"rex/internal/transport"
)

const replicas = 3

// cluster is three in-process replicas wired exactly as cmd/rexd wires one:
// a loopback TCP endpoint, a fsynced FileLog, FileSnapshots and a client
// server per replica, with rexd's default configuration.
type cluster struct {
	app    apps.App
	dir    string
	tracer *tracer // nil in untraced runs: the raw storage and transport are passed

	peerAddrs   []string // replication addresses, fixed after the first start
	clientAddrs []string // client addresses, fixed after the first start

	mu    sync.Mutex
	nodes [replicas]*node // nil while a replica is stopped
}

// node is one incarnation of a replica; a restart builds a new one.
type node struct {
	id  int
	tcp *transport.TCPEndpoint
	wal *storage.FileLog
	rep *core.Replica
	srv *server.Server

	base    obs.Snapshot // metrics at the start of the measured window
	stopped bool
}

func newCluster(app apps.App, dir string, tr *tracer) (*cluster, error) {
	c := &cluster{
		app:         app,
		dir:         dir,
		tracer:      tr,
		peerAddrs:   make([]string, replicas),
		clientAddrs: make([]string, replicas),
	}
	// Every endpoint binds 127.0.0.1:0 first; once all ports are known each
	// endpoint learns its peers' addresses.
	for i := 0; i < replicas; i++ {
		addrs := make([]string, replicas)
		addrs[i] = "127.0.0.1:0"
		tcp, err := transport.ListenTCP(i, addrs)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("listen replica %d: %w", i, err)
		}
		c.peerAddrs[i] = tcp.Addr().String()
		c.nodes[i] = &node{id: i, tcp: tcp}
	}
	for i := 0; i < replicas; i++ {
		for j, a := range c.peerAddrs {
			if j != i {
				c.nodes[i].tcp.SetPeer(j, a)
			}
		}
	}
	for i := 0; i < replicas; i++ {
		if err := c.bringUp(c.nodes[i]); err != nil {
			c.close()
			return nil, fmt.Errorf("start replica %d: %w", i, err)
		}
	}
	return c, nil
}

// bringUp opens n's storage, starts its replica on n.tcp and serves clients.
// On error everything n holds is closed.
func (c *cluster) bringUp(n *node) (err error) {
	defer func() {
		if err != nil {
			n.stop()
		}
	}()
	dir := filepath.Join(c.dir, fmt.Sprintf("replica-%d", n.id))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	n.tcp.RegisterMetrics(reg)
	if n.wal, err = storage.OpenFileLog(filepath.Join(dir, "wal"), true); err != nil {
		return fmt.Errorf("open WAL: %w", err)
	}
	walObs := storage.NewLogMetrics()
	walObs.Register(reg)
	n.wal.SetMetrics(walObs)
	snaps, err := storage.NewFileSnapshots(filepath.Join(dir, "snapshots"))
	if err != nil {
		return fmt.Errorf("snapshot store: %w", err)
	}
	var (
		ep   transport.Endpoint    = n.tcp
		log  storage.Log           = n.wal
		snap storage.SnapshotStore = snaps
	)
	if c.tracer != nil {
		ep = &tracedEndpoint{Endpoint: n.tcp, tr: c.tracer, replica: n.id}
		log = &tracedLog{Log: n.wal, tr: c.tracer, replica: n.id}
		snap = &tracedSnapshots{SnapshotStore: snaps, tr: c.tracer, replica: n.id}
	}
	// cmd/rexd's defaults, flag for flag.
	rep, err := core.NewReplica(core.Config{
		ID:              n.id,
		N:               replicas,
		Env:             env.NewReal(),
		Endpoint:        ep,
		Log:             log,
		Snapshots:       snap,
		Factory:         c.app.Factory,
		Workers:         8,
		Timers:          c.app.Timers,
		ReadWorkers:     2,
		CheckpointEvery: 30 * time.Second,
		ElectionTimeout: 150 * time.Millisecond,
		Seed:            int64(n.id) + 1,
		Metrics:         reg,
	})
	if err != nil {
		return err
	}
	if err := rep.Start(); err != nil {
		return err
	}
	n.rep = rep
	addr := c.clientAddrs[n.id]
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	err = retryAddrInUse(func() error {
		var err error
		n.srv, err = server.ListenWith(rep, addr, server.Options{})
		return err
	})
	if err != nil {
		return fmt.Errorf("client listener: %w", err)
	}
	c.clientAddrs[n.id] = n.srv.Addr().String()
	return nil
}

// retryAddrInUse retries a listen on a port that was just released.
func retryAddrInUse(listen func() error) error {
	var err error
	for i := 0; i < 100; i++ {
		if err = listen(); err == nil || !errors.Is(err, syscall.EADDRINUSE) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// stop shuts a node down the way rexd does on SIGINT: server, replica
// (which closes its endpoint), then the WAL. Safe on a partly built node.
func (n *node) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	if n.srv != nil {
		n.srv.Close()
	}
	if n.rep != nil {
		n.rep.Stop()
	} else if n.tcp != nil {
		n.tcp.Close()
	}
	if n.wal != nil {
		n.wal.Close()
	}
}

// kill stops replica i and returns its final incarnation.
func (c *cluster) kill(i int) *node {
	c.mu.Lock()
	n := c.nodes[i]
	c.nodes[i] = nil
	c.mu.Unlock()
	if n != nil {
		n.stop()
	}
	return n
}

// restart brings replica i back on its old addresses, WAL and snapshots.
func (c *cluster) restart(i int) (*node, error) {
	n := &node{id: i}
	err := retryAddrInUse(func() error {
		var err error
		n.tcp, err = transport.ListenTCP(i, c.peerAddrs)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("listen replica %d: %w", i, err)
	}
	if err := c.bringUp(n); err != nil {
		return nil, fmt.Errorf("restart replica %d: %w", i, err)
	}
	c.mu.Lock()
	c.nodes[i] = n
	c.mu.Unlock()
	return n, nil
}

// live returns the running incarnations.
func (c *cluster) live() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*node
	for _, n := range c.nodes {
		if n != nil && n.rep != nil {
			out = append(out, n)
		}
	}
	return out
}

// primary returns the unique running primary, or nil.
func (c *cluster) primary() *node {
	var p *node
	for _, n := range c.live() {
		if n.rep.Role() == core.RolePrimary {
			if p != nil {
				return nil
			}
			p = n
		}
	}
	return p
}

// waitPrimary polls until exactly one replica is primary.
func (c *cluster) waitPrimary(timeout time.Duration) (*node, error) {
	deadline := time.Now().Add(timeout)
	for {
		if p := c.primary(); p != nil {
			return p, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no primary after %v (%s)", timeout, c.describe())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitApplied polls until every replica runs and has applied at least
// target instances. It does not wait for the frontier to stop: lsmkv's
// timer threads keep committing instances on an idle cluster. Replay that
// is still executing what was applied is left to the caller.
func (c *cluster) waitApplied(target uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live := c.live()
		ok := len(live) == replicas
		for _, n := range live {
			if n.rep.Stats().Applied < target {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not apply %d instances within %v (%s)", target, timeout, c.describe())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// describe reports each replica's role, applied frontier and elections, for
// failure messages.
func (c *cluster) describe() string {
	c.mu.Lock()
	nodes := c.nodes
	c.mu.Unlock()
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += "; "
		}
		if n == nil || n.rep == nil {
			s += fmt.Sprintf("replica %d stopped", i)
			continue
		}
		st := n.rep.Stats()
		s += fmt.Sprintf("replica %d role=%s applied=%d elections=%d", i, st.Role, st.Applied,
			n.rep.Metrics().Counter("rex_paxos_elections_total"))
	}
	return s
}

// close stops every running replica. Safe to call more than once.
func (c *cluster) close() {
	for i := 0; i < replicas; i++ {
		c.kill(i)
	}
}

// clientAddrList returns the client addresses in replica-id order.
func (c *cluster) clientAddrList() []string {
	return append([]string(nil), c.clientAddrs...)
}
