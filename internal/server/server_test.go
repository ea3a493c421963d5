package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rex/internal/apps"
	"rex/internal/apps/hashdb"
	"rex/internal/client"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/rebalance"
	"rex/internal/shard"
	"rex/internal/storage"
	"rex/internal/transport"
	"rex/internal/wire"
)

// freePorts reserves n distinct localhost ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	var listeners []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// startTCPCluster runs a 3-replica hashdb cluster over real TCP, each
// replica behind its own client server, until the test ends.
func startTCPCluster(t *testing.T) ([]*core.Replica, []*Server, []string) {
	t.Helper()
	app := apps.HashDB()
	peerAddrs := freePorts(t, 3)
	clientAddrs := freePorts(t, 3)
	e := env.NewReal()
	var replicas []*core.Replica
	var servers []*Server
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
		for _, r := range replicas {
			r.Stop()
		}
	})
	for i := 0; i < 3; i++ {
		ep, err := transport.ListenTCP(i, peerAddrs)
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		log, snaps, _ := storage.OpenStores(e, storage.NewMemDisk())
		r, err := core.NewReplica(core.Config{
			ID: i, N: 3, Env: e,
			Endpoint:        ep,
			Log:             log,
			Snapshots:       snaps,
			Factory:         app.Factory,
			Workers:         2,
			Timers:          app.Timers,
			ReadWorkers:     1,
			HeartbeatEvery:  30 * time.Millisecond,
			ElectionTimeout: 150 * time.Millisecond,
			Seed:            int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
		srv, err := Listen(r, clientAddrs[i])
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	return replicas, servers, clientAddrs
}

// waitTCPPrimary waits for one of the live replicas to win an election
// over real TCP and returns its index.
func waitTCPPrimary(t *testing.T, replicas []*core.Replica) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, r := range replicas {
			if r != nil && r.Role() == core.RolePrimary {
				return i
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no primary elected over TCP")
	return -1
}

// TestTCPClusterEndToEnd runs a real 3-replica cluster over TCP on the
// real environment — the cmd/rexd deployment path — and drives it through
// the client protocol.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP cluster test")
	}
	replicas, _, clientAddrs := startTCPCluster(t)
	leader := waitTCPPrimary(t, replicas)

	cl := NewClient(42, clientAddrs)
	defer cl.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("tcp-key-%d", i)
		resp, err := cl.Do(hashdb.SetReq(key, []byte(fmt.Sprintf("v%d", i))))
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if len(resp) != 1 || resp[0] != 1 {
			t.Fatalf("set resp = %x", resp)
		}
	}
	resp, err := cl.Do(hashdb.GetReq("tcp-key-7"))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	d := wire.NewDecoder(resp)
	if ok := d.Bool(); !ok || string(d.BytesVal()) != "v7" {
		t.Fatalf("get = %q (ok=%v)", resp, ok)
	}

	// Read-only query against each replica (secondaries may lag briefly).
	q := hashdb.GetReq("tcp-key-7")
	for i := range replicas {
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := cl.Query(i, q)
			if err == nil {
				d := wire.NewDecoder(resp)
				if d.Bool() && string(d.BytesVal()) == "v7" {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never served the query: %v", i, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Status from the leader reflects its role.
	st, err := cl.Status(leader)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Role != core.RolePrimary || st.Leader != leader {
		t.Errorf("leader status = %+v", st)
	}

	// Unsharded servers have no map to serve.
	if _, err := cl.FetchShardMap(leader); err == nil {
		t.Error("unsharded server served a shard map")
	}

	// Submitting at a follower must redirect (the client handles it); a
	// direct Submit must return ErrNotPrimary.
	follower := (leader + 1) % 3
	if _, err := replicas[follower].Submit(1, 1, hashdb.GetReq("x")); err == nil {
		t.Error("follower accepted a Submit")
	}
}

// TestShardedTCPEndToEnd is the full multi-group deployment over real
// TCP: three processes, two groups each (via shard.Node + ListenNode), a
// keyed router over the node addresses, plus shard-map fetch and
// per-group status.
func TestShardedTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP cluster test")
	}
	m, err := shard.NewShardMap(1, 2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	app := apps.HashDB()
	peerAddrs := freePorts(t, 3)
	clientAddrs := freePorts(t, 3)
	e := env.NewReal()

	var nodes []*shard.Node
	var servers []*Server
	for i := 0; i < 3; i++ {
		ep, err := transport.ListenTCP(i, peerAddrs)
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		n, err := shard.NewNode(shard.NodeConfig{
			Env:      e,
			Map:      m,
			Node:     i,
			Endpoint: ep,
			Template: core.Config{
				Factory:         app.Factory,
				Workers:         2,
				Timers:          app.Timers,
				ReadWorkers:     1,
				HeartbeatEvery:  30 * time.Millisecond,
				ElectionTimeout: 150 * time.Millisecond,
				Seed:            11,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		srv, err := ListenNode(n, clientAddrs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for _, n := range nodes {
			n.Stop()
		}
	}()

	// Wait until every group has a primary somewhere.
	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < m.Groups(); g++ {
		for {
			elected := false
			for _, n := range nodes {
				if r := n.Replica(g); r != nil && r.Role() == core.RolePrimary {
					elected = true
				}
			}
			if elected {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("group %d never elected a primary", g)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	router, err := NewShardRouter(100, m, clientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[int]bool)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("shard-key-%d", i)
		covered[router.GroupFor([]byte(key))] = true
		if _, err := router.Do([]byte(key), hashdb.SetReq(key, []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
	}
	if len(covered) != 2 {
		t.Fatalf("16 keys covered %d of 2 groups", len(covered))
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("shard-key-%d", i)
		resp, err := router.Do([]byte(key), hashdb.GetReq(key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		d := wire.NewDecoder(resp)
		if ok := d.Bool(); !ok || string(d.BytesVal()) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = %q", key, resp)
		}
	}
	// Session reads over both groups: each group client's session token
	// must carry its own group, or every group other than 0 refuses it.
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("shard-key-%d", i)
		resp, err := router.QueryLevel([]byte(key), readpath.Session, hashdb.GetReq(key))
		if err != nil {
			t.Errorf("session get %s (group %d): %v", key, router.GroupFor([]byte(key)), err)
			continue
		}
		d := wire.NewDecoder(resp)
		if ok := d.Bool(); !ok || string(d.BytesVal()) != fmt.Sprintf("v%d", i) {
			t.Errorf("session get %s = %q", key, resp)
		}
	}

	// Any node serves the deployment's map, byte-identical to ours.
	cl := NewClient(999, clientAddrs)
	defer cl.Close()
	fetched, err := cl.FetchShardMap(0)
	if err != nil {
		t.Fatalf("fetch map: %v", err)
	}
	if string(fetched.EncodeBytes()) != string(m.EncodeBytes()) {
		t.Fatalf("fetched map differs: %v vs %v", fetched, m)
	}

	// Per-group status via a group-bound client.
	g1 := NewGroupClient(1000, 1, []string{
		clientAddrs[m.Placement[1][0]], clientAddrs[m.Placement[1][1]], clientAddrs[m.Placement[1][2]],
	})
	defer g1.Close()
	st, err := g1.Status(0)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Leader < 0 {
		t.Errorf("group 1 status has no leader: %+v", st)
	}

	// A request for a group the map doesn't define is an error, not a hang.
	bogus := NewGroupClient(1001, 9, []string{clientAddrs[0]})
	defer bogus.Close()
	if _, err := bogus.Do([]byte("x")); err == nil {
		t.Error("unknown group accepted")
	}
}

// TestRebalanceTCPEndToEnd runs a rebalance-enabled sharded deployment
// over real TCP — the `rexd -shards 2 -rebalance` path — and drives a
// split, a live move, and a merge through the server-side coordinator
// (the `rexctl rebalance` path) while reading back through the
// envelope-speaking live router.
func TestRebalanceTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP cluster test")
	}
	m, err := shard.NewShardMap(1, 2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.EnsureRanges()
	app := apps.HashDB()
	peerAddrs := freePorts(t, 3)
	clientAddrs := freePorts(t, 3)
	e := env.NewReal()

	var nodes []*shard.Node
	var servers []*Server
	for i := 0; i < 3; i++ {
		ep, err := transport.ListenTCP(i, peerAddrs)
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		n, err := shard.NewNode(shard.NodeConfig{
			Env:      e,
			Map:      m,
			Node:     i,
			Endpoint: ep,
			Template: core.Config{
				Factory:         app.Factory,
				Workers:         2,
				Timers:          app.Timers,
				ReadWorkers:     1,
				HeartbeatEvery:  30 * time.Millisecond,
				ElectionTimeout: 150 * time.Millisecond,
				Seed:            13,
			},
			RebalanceWrap: func(g int, inner core.Factory) core.Factory {
				return rebalance.WrapFactory(inner, m, g, g == 0)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		srv, err := ListenNode(n, clientAddrs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for _, n := range nodes {
			n.Stop()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < m.Groups(); g++ {
		for {
			elected := false
			for _, n := range nodes {
				if r := n.Replica(g); r != nil && r.Role() == core.RolePrimary {
					elected = true
				}
			}
			if elected {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("group %d never elected a primary", g)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	router, err := NewLiveShardRouter(100, m, clientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 24
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("rb-key-%d", i)
		if _, err := router.Do([]byte(key), hashdb.SetReq(key, []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
	}

	// Split group 0's range, move the upper child to group 1, then merge
	// group 1's now-adjacent ranges.
	cd, err := NewCoordinator(500, m, clientAddrs)
	if err != nil {
		t.Fatal(err)
	}
	at := uint64(1) << 62
	if _, err := cd.Split(at); err != nil {
		t.Fatalf("split: %v", err)
	}
	if _, err := cd.Move(at, 1); err != nil {
		t.Fatalf("move: %v", err)
	}
	nm, err := cd.Merge(uint64(1) << 63)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if nm.Version != m.Version+3 {
		t.Fatalf("final map v%d, want v%d", nm.Version, m.Version+3)
	}
	if g := nm.Ranges[nm.RangeIndexFor(at)].Group; g != 1 {
		t.Fatalf("moved span owned by group %d, want 1\n%s", g, nm)
	}

	// Every key reads back through the live router (which follows the
	// NACKs to the new owner), and nodes serve the committed map.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("rb-key-%d", i)
		resp, err := router.Do([]byte(key), hashdb.GetReq(key))
		if err != nil {
			t.Fatalf("get %s after rebalance: %v", key, err)
		}
		d := wire.NewDecoder(resp)
		if ok := d.Bool(); !ok || string(d.BytesVal()) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s after rebalance = %q", key, resp)
		}
	}
	cl := NewClient(999, clientAddrs)
	defer cl.Close()
	fetched, err := cl.FetchShardMap(0)
	if err != nil {
		t.Fatalf("fetch live map: %v", err)
	}
	if fetched.Version != nm.Version {
		t.Fatalf("node serves map v%d, want live v%d", fetched.Version, nm.Version)
	}
}

// startFramingServer boots a single self-electing replica behind a TCP
// server for protocol edge-case tests.
func startFramingServer(t *testing.T) (*Server, func()) {
	t.Helper()
	app := apps.HashDB()
	e := env.NewReal()
	net1 := transport.NewNetwork(e, 1, 0, 1)
	log, snaps, _ := storage.OpenStores(e, storage.NewMemDisk())
	r, err := core.NewReplica(core.Config{
		ID: 0, N: 1, Env: e,
		Endpoint:        net1.Endpoint(0),
		Log:             log,
		Snapshots:       snaps,
		Factory:         app.Factory,
		Workers:         1,
		Timers:          app.Timers,
		ElectionTimeout: 50 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(r, "127.0.0.1:0")
	if err != nil {
		r.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Role() != core.RolePrimary && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return srv, func() { srv.Close(); r.Stop() }
}

// request encodes a protocol frame body (without the length prefix).
func request(kind byte, group, client, seq uint64, body []byte) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(kind)
	e.Uvarint(group)
	e.Uvarint(client)
	e.Uvarint(seq)
	e.BytesVal(body)
	return e.Bytes()
}

// TestClientProtocolFraming is the table-driven framing edge-case suite:
// malformed, unknown-kind, unknown-group, oversized, and truncated frames
// must all produce clean errors — never a crash, a hang, or a poisoned
// connection handler.
func TestClientProtocolFraming(t *testing.T) {
	srv, stop := startFramingServer(t)
	defer stop()

	oldTimeout := frameBodyTimeout
	frameBodyTimeout = 300 * time.Millisecond
	defer func() { frameBodyTimeout = oldTimeout }()

	writeRaw := func(conn net.Conn, declaredLen uint32, payload []byte) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], declaredLen)
		conn.Write(hdr[:])
		conn.Write(payload)
	}

	cases := []struct {
		name string
		// send writes one bad frame and reports what must happen next:
		// wantStatus < 0 means the server must just close the connection.
		send       func(conn net.Conn)
		wantStatus int
		wantMsg    string
	}{
		{
			name: "unknown kind",
			send: func(conn net.Conn) {
				f := request(99, 0, 1, 1, nil)
				writeRaw(conn, uint32(len(f)), f)
			},
			wantStatus: int(StatusError),
			wantMsg:    "unknown request kind",
		},
		{
			name: "retired submit kind",
			send: func(conn net.Conn) {
				f := request(1, 0, 1, 1, []byte("x"))
				writeRaw(conn, uint32(len(f)), f)
			},
			wantStatus: int(StatusError),
			wantMsg:    "unknown request kind",
		},
		{
			name: "unknown group",
			send: func(conn net.Conn) {
				f := request(KindSubmitToken, 7, 1, 1, []byte("x"))
				writeRaw(conn, uint32(len(f)), f)
			},
			// Permanent: placement is static, retrying cannot help.
			wantStatus: int(StatusFailed),
			wantMsg:    "not hosted",
		},
		{
			name: "malformed body",
			send: func(conn net.Conn) {
				// A bare kind byte: the decoder runs out of input.
				writeRaw(conn, 1, []byte{KindSubmitToken})
			},
			wantStatus: int(StatusError),
			wantMsg:    "malformed",
		},
		{
			name: "oversized frame",
			send: func(conn net.Conn) {
				writeRaw(conn, maxFrame+1, nil)
			},
			wantStatus: int(StatusError),
			wantMsg:    "oversized",
		},
		{
			name: "short read",
			send: func(conn net.Conn) {
				// Announce 100 bytes, deliver 3, then go silent: the body
				// timeout must free the handler (connection closes).
				writeRaw(conn, 100, []byte{1, 2, 3})
			},
			wantStatus: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			tc.send(conn)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := readFrame(conn)
			if tc.wantStatus < 0 {
				if err == nil {
					t.Fatalf("expected closed connection, got response %x", resp)
				}
				return
			}
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if int(resp[0]) != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp[0], tc.wantStatus)
			}
			if !strings.Contains(string(resp[1:]), tc.wantMsg) {
				t.Errorf("message = %q, want substring %q", resp[1:], tc.wantMsg)
			}
		})
	}

	// After all that abuse, a well-formed request still works.
	cl := NewClient(1, []string{srv.Addr().String()})
	defer cl.Close()
	if _, err := cl.Do(hashdb.SetReq("k", []byte("v"))); err != nil {
		t.Fatalf("well-formed request after abuse: %v", err)
	}
}

// TestCloseUnblocksIdleConns verifies the shutdown path: Close must
// return promptly even when clients hold open connections with no
// request in flight (the read loop is blocked in readFrame).
func TestCloseUnblocksIdleConns(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	srv, stop := startFramingServer(t)
	addr := srv.Addr().String()

	// Park a few idle connections; never send a byte on them.
	var idle []net.Conn
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		idle = append(idle, conn)
	}
	// Give the accept loop a moment to hand them to serveConn.
	time.Sleep(50 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		stop() // srv.Close() + replica stop
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s with idle connections open")
	}
	// The server side must have closed the idle conns too.
	for _, conn := range idle {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := readFrame(conn); err == nil {
			t.Error("idle connection still open after Close")
		}
	}
}

// TestDeadlineFrameRejectsGarbage sends request frames with malformed
// trailing deadline fields and expects a typed error status, never a
// hang or crash.
func TestDeadlineFrameRejectsGarbage(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	srv, stop := startFramingServer(t)
	defer stop()
	addr := srv.Addr().String()

	cases := []struct {
		name  string
		extra []byte
	}{
		{"zero budget", []byte{0x00}},
		{"truncated uvarint", []byte{0x80}},
		{"oversized budget", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"trailing junk", []byte{0x01, 0xde, 0xad}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			frame := request(KindSubmitToken, 0, 99, 1, hashdb.SetReq("k", []byte("v")))
			frame = append(frame, tc.extra...)
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
			if _, err := conn.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := readFrame(conn)
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if resp[0] != StatusError {
				t.Errorf("status = %d, want StatusError", resp[0])
			}
			if !strings.Contains(string(resp[1:]), "malformed request") {
				t.Errorf("message = %q, want malformed request", resp[1:])
			}
		})
	}

	// A well-formed frame with a valid deadline still succeeds.
	cl := NewClient(7, []string{addr})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.DoCtx(ctx, hashdb.SetReq("k2", []byte("v2"))); err != nil {
		t.Fatalf("deadline-framed request: %v", err)
	}
}

// TestStatusErrInvertsErrStatus checks the wire mapping both ways: every
// typed error a replica's Submit, QueryLevel, Query or membership change
// returns, sent through errStatus and decoded by statusErr, must get the
// same treatment from the client loop as the error itself — with its
// leader hint and retry-after hint intact.
func TestStatusErrInvertsErrStatus(t *testing.T) {
	errs := []error{
		core.ErrNotPrimary{Leader: 2},
		core.ErrNotPrimary{Leader: -1},
		core.ErrStaleSeq,
		core.ErrStopped,
		core.ErrReconfigInFlight,
		overload.Shed{RetryAfter: 7 * time.Millisecond},
		overload.Shed{},
		overload.ErrDeadlineExceeded,
		readpath.ErrPrimaryOnly,
		readpath.ErrFrontierWait,
		readpath.ErrLeaseWait,
		errors.New("rex: no read workers configured"),
	}
	for _, want := range errs {
		status, body := errStatus(want)
		got := statusErr(status, body)
		if client.Classify(got) != client.Classify(want) {
			t.Errorf("%v: decoded as %v (class %d), want class %d", want, got, client.Classify(got), client.Classify(want))
		}
		var wantNP, gotNP core.ErrNotPrimary
		if errors.As(want, &wantNP) && (!errors.As(got, &gotNP) || gotNP.Leader != wantNP.Leader) {
			t.Errorf("%v: leader hint decoded as %v", want, got)
		}
		if ra := overload.RetryAfter(want); ra > 0 && overload.RetryAfter(got) != ra {
			t.Errorf("%v: retry-after decoded as %v", want, overload.RetryAfter(got))
		}
	}
}

// TestTCPLinearizableReadAfterPrimaryCrash stops the primary a client
// last wrote through, closes its port, and once a new primary is elected
// issues a linearizable read through the same client. The read must move
// on from the dead address and be served by the new primary.
func TestTCPLinearizableReadAfterPrimaryCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP cluster test")
	}
	replicas, servers, clientAddrs := startTCPCluster(t)
	old := waitTCPPrimary(t, replicas)
	cl := NewClient(42, clientAddrs)
	defer cl.Close()
	if _, err := cl.Do(hashdb.SetReq("k", []byte("v"))); err != nil {
		t.Fatalf("set: %v", err)
	}
	servers[old].Close()
	replicas[old].Stop()
	live := append([]*core.Replica(nil), replicas...)
	live[old] = nil
	waitTCPPrimary(t, live)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cl.QueryLevelCtx(ctx, readpath.Linearizable, hashdb.GetReq("k"))
	if err != nil {
		t.Fatalf("linearizable read after stopping primary %d: %v", old, err)
	}
	d := wire.NewDecoder(resp)
	if !d.Bool() || string(d.BytesVal()) != "v" {
		t.Fatalf("read %q, want v", resp)
	}
}

// readFrame reads one frame from conn through a fresh frameConn; tests
// use it to read a single response.
func readFrame(conn net.Conn) ([]byte, error) {
	return newFrameConn(conn).readFrame(time.Time{})
}
