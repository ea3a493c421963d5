// Package server exposes Rex replicas to remote clients over a minimal
// TCP protocol, used by cmd/rexd and cmd/rexctl. One server can host
// several shard groups' replicas (one process, one listener).
//
// A connection carries one request at a time. Both directions use
// length-prefixed frames:
//
//	request:  [4-byte len][kind][uvarint group][uvarint client][uvarint seq][bytes body][uvarint deadline_ms]?
//	response: [4-byte len][status][body]
//
// Lengths are big-endian and count everything after the prefix; "bytes"
// is a uvarint length followed by that many bytes. The trailing deadline
// is optional: when present it is the client's remaining budget in
// milliseconds (overload.AppendWireDeadline), and a submit whose budget
// runs out before it executes is answered with status 5. group, client
// and seq are ignored by kinds that do not need them.
//
// Kinds:
//
//	2 query       local read-only query of the group's replica
//	3 shard map   the shard map; a rebalance-enabled node answers with the
//	              live map from group 0's replicated state, so a client
//	              NACKed for a wrong group can refresh it
//	4 status      role byte, varint leader, uvarint applied, completed
//	              and outstanding request counts
//	5 reconfig    propose a membership change (body: client.Change's op
//	              byte, uvarint id and new id, bytes addr)
//	6 membership  the group's committed membership
//	7 leveled     body: level byte, bytes session token, bytes query; ok
//	  query       body: bytes refreshed token, bytes response
//	8 submit      replicated request (client, seq deduplicate); ok body:
//	              bytes session token, bytes response
//
// Any other kind, including the retired 1, is answered StatusError
// "unknown request kind".
//
// Statuses: 0 ok (body is the response); 1 not primary (body is a varint
// leader hint, -1 unknown); 2 error (body is a message; the request may
// succeed elsewhere or later); 3 failed permanently (body is a message;
// retrying cannot help); 4 overloaded (shed before execution; body is a
// uvarint retry-after hint in milliseconds); 5 deadline exceeded (the
// propagated deadline expired before execution; body is a message). 4 and
// 5 guarantee the request did not execute.
//
// Framing is defensive: an oversized length prefix gets an error response
// and the connection is dropped (the stream cannot be resynced), a frame
// whose body never arrives times out instead of pinning the connection
// handler forever, and the body buffer grows only as bytes arrive, so a
// length prefix alone cannot pin the memory it announces.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rex/internal/client"
	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/rebalance"
	"rex/internal/reconfig"
	"rex/internal/shard"
	"rex/internal/trace"
	"rex/internal/wire"
)

// Protocol constants.
const (
	KindQuery       byte = 2
	KindShardMap    byte = 3
	KindStatus      byte = 4
	KindReconfig    byte = 5
	KindMembership  byte = 6
	KindQueryLevel  byte = 7
	KindSubmitToken byte = 8

	StatusOK         byte = 0
	StatusNotPrimary byte = 1
	StatusError      byte = 2
	StatusFailed     byte = 3
	StatusOverloaded byte = 4
	StatusDeadline   byte = 5

	maxFrame = 64 << 20
)

// ErrPermanent marks client errors that no retry can fix: the server
// answered StatusFailed (stale sequence number, unknown group, a
// membership change the current membership rejects), or the request
// itself cannot be framed. Callers check with errors.Is; it is
// client.ErrPermanent, the one sentinel every client loop returns.
var ErrPermanent = client.ErrPermanent

// frameBodyTimeout bounds how long a connection may dangle between a
// frame's length prefix and its last body byte. A package variable so the
// truncated-frame test doesn't take 10 seconds.
var frameBodyTimeout = 10 * time.Second

// errOversized marks a frame whose declared length exceeds maxFrame; the
// server answers it with StatusError before dropping the connection.
var errOversized = errors.New("server: oversized frame")

// DefaultMaxInflightPerGroup is the per-group concurrent-request budget
// a server applies when Options leaves it unset: requests past it are
// NACKed StatusOverloaded at the server edge, before touching the
// replica. The per-connection budget is structural — the protocol is
// one request per connection at a time — so this bounds total
// concurrency at (open connections) ∧ (groups × budget).
const DefaultMaxInflightPerGroup = 1024

// serverRetryAfter is the retry-after hint for edge NACKs (the server's
// own budget, as opposed to core sheds which carry the controller's
// estimate).
const serverRetryAfter = 10 * time.Millisecond

// Options tunes a listening server.
type Options struct {
	// MaxInflightPerGroup bounds requests concurrently executing per
	// hosted group. 0 selects DefaultMaxInflightPerGroup; negative
	// disables the budget.
	MaxInflightPerGroup int
}

// Server serves client connections for the replicas of one process.
type Server struct {
	replicas    map[int]*core.Replica // by group id
	smap        *shard.ShardMap       // nil when unsharded
	live        bool                  // rebalance-enabled: serve the live map
	maxInflight int                   // per-group budget; 0 = disabled
	ln          net.Listener
	mu          sync.Mutex
	closed      bool
	conns       map[net.Conn]struct{} // open connections, closed with the server
	inflight    map[int]int           // executing requests per group
	wg          sync.WaitGroup
}

// Listen starts serving a single, unsharded replica on addr (it answers
// group 0; shard-map fetches report an error).
func Listen(replica *core.Replica, addr string) (*Server, error) {
	return ListenWith(replica, addr, Options{})
}

// ListenWith is Listen with explicit options.
func ListenWith(replica *core.Replica, addr string, opts Options) (*Server, error) {
	return listen(map[int]*core.Replica{0: replica}, nil, false, addr, opts)
}

// ListenNode starts serving every group a shard node hosts, plus the
// node's shard map.
func ListenNode(n *shard.Node, addr string) (*Server, error) {
	return ListenNodeWith(n, addr, Options{})
}

// ListenNodeWith is ListenNode with explicit options.
func ListenNodeWith(n *shard.Node, addr string, opts Options) (*Server, error) {
	replicas := make(map[int]*core.Replica)
	for _, g := range n.Groups() {
		replicas[g] = n.Replica(g)
	}
	return listen(replicas, n.Map(), n.RebalanceEnabled(), addr, opts)
}

func listen(replicas map[int]*core.Replica, smap *shard.ShardMap, live bool, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	maxInflight := opts.MaxInflightPerGroup
	if maxInflight == 0 {
		maxInflight = DefaultMaxInflightPerGroup
	}
	if maxInflight < 0 {
		maxInflight = 0
	}
	s := &Server{
		replicas:    replicas,
		smap:        smap,
		live:        live,
		maxInflight: maxInflight,
		ln:          ln,
		conns:       make(map[net.Conn]struct{}),
		inflight:    make(map[int]int),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every open connection — unblocking
// handlers idling in a read, so shutdown does not wait on silent
// clients — and waits for the handlers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// admitGroup takes one slot of the group's in-flight budget; false means
// the edge budget is exhausted and the request must be NACKed without
// touching the replica.
func (s *Server) admitGroup(group int) bool {
	if s.maxInflight <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[group] >= s.maxInflight {
		return false
	}
	s.inflight[group]++
	return true
}

func (s *Server) releaseGroup(group int) {
	if s.maxInflight <= 0 {
		return
	}
	s.mu.Lock()
	s.inflight[group]--
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fc := newFrameConn(conn)
	var sc connScratch
	for {
		frame, err := fc.readFrame(time.Time{})
		if err != nil {
			if errors.Is(err, errOversized) {
				// Tell the client why before hanging up; the stream can't
				// be resynced past a length we refuse to read.
				fc.writeReply(StatusError, []byte(err.Error()))
			}
			return
		}
		status, body := s.handle(frame, &sc)
		if err := fc.writeReply(status, body); err != nil {
			return
		}
		sc.reply = reuse(sc.reply)
	}
}

// wireRequest is a decoded client request frame (see the package comment).
type wireRequest struct {
	kind               byte
	group, client, seq uint64
	body               []byte
	budget             time.Duration // 0: the frame carries no deadline
}

// appendRequest appends req's encoding to buf.
func appendRequest(buf []byte, req wireRequest) []byte {
	e := wire.NewEncoder(buf)
	e.Byte(req.kind)
	e.Uvarint(req.group)
	e.Uvarint(req.client)
	e.Uvarint(req.seq)
	e.BytesVal(req.body)
	overload.AppendWireDeadline(e, req.budget)
	return e.Bytes()
}

// decodeRequest decodes a request frame; body aliases frame.
func decodeRequest(frame []byte) (wireRequest, error) {
	d := wire.NewDecoder(frame)
	req := wireRequest{kind: d.Byte(), group: d.Uvarint(), client: d.Uvarint(), seq: d.Uvarint(), body: d.BytesVal()}
	if d.Err() != nil {
		return wireRequest{}, errors.New("malformed request")
	}
	// The optional trailing deadline budget. A garbage trailer is a
	// malformed frame, not a silently dropped field.
	budget, err := overload.DecodeWireDeadline(d)
	if err != nil {
		return wireRequest{}, fmt.Errorf("malformed request: %v", err)
	}
	req.budget = budget
	return req, nil
}

// connScratch is the storage serving one connection reuses from request
// to request: a request's session token decodes into tokCut and a
// token-carrying answer is encoded into reply. Each answer is written
// before the next request reuses them.
type connScratch struct {
	tokCut trace.Cut
	reply  []byte
}

// handle serves one request frame, using sc's storage for session tokens.
func (s *Server) handle(frame []byte, sc *connScratch) (byte, []byte) {
	req, err := decodeRequest(frame)
	if err != nil {
		return StatusError, []byte(err.Error())
	}
	kind, group, body := req.kind, req.group, req.body
	if kind == KindShardMap {
		if s.smap == nil {
			return StatusError, []byte("server: not sharded (no shard map)")
		}
		// A rebalance-enabled node hosting the map home serves the live map from replicated state; anything else (home
		// group elsewhere, replica still catching up) falls back to the
		// static bootstrap map — clients converge via NACK-driven
		// refetches against a node that does host the home.
		if s.live {
			if rep := s.replicas[0]; rep != nil {
				if m := liveMapFrom(rep); m != nil {
					return StatusOK, m.EncodeBytes()
				}
			}
		}
		return StatusOK, s.smap.EncodeBytes()
	}
	rep := s.replicas[int(group)]
	if rep == nil {
		// Placement is static per map version: no retry against this node
		// can ever find the group.
		return StatusFailed, []byte(fmt.Sprintf("server: group %d not hosted here", group))
	}
	// The per-group in-flight budget guards the load-bearing kinds at
	// the server edge: past it, NACK without doing any replica work.
	switch kind {
	case KindSubmitToken, KindQuery, KindQueryLevel:
		if !s.admitGroup(int(group)) {
			return StatusOverloaded, overloadedBody(serverRetryAfter)
		}
		defer s.releaseGroup(int(group))
	}
	switch kind {
	case KindSubmitToken:
		resp, tok, err := rep.SubmitTokenDeadline(req.client, req.seq, body, req.budget)
		if err != nil {
			return errStatus(err)
		}
		sc.reply = tokenResp(sc.reply[:0], tok, resp)
		return StatusOK, sc.reply
	case KindQuery:
		resp, err := rep.Query(body)
		if err != nil {
			return errStatus(err)
		}
		return StatusOK, resp
	case KindQueryLevel:
		d2 := wire.NewDecoder(body)
		level := readpath.Level(d2.Byte())
		tokB := d2.BytesVal()
		q := d2.BytesVal()
		if d2.Err() != nil {
			return StatusFailed, []byte("malformed leveled query")
		}
		tok, err := readpath.DecodeTokenBytes(tokB, sc.tokCut)
		if err != nil {
			return StatusFailed, []byte(fmt.Sprintf("corrupt session token: %v", err))
		}
		if tok.Cut != nil {
			sc.tokCut = tok.Cut
		}
		resp, out, err := rep.QueryLevel(level, tok, q)
		if err != nil {
			return errStatus(err)
		}
		sc.reply = tokenResp(sc.reply[:0], out, resp)
		return StatusOK, sc.reply
	case KindStatus:
		st := rep.Stats()
		e := wire.NewEncoder(nil)
		e.Byte(byte(st.Role))
		e.Varint(int64(rep.Leader()))
		e.Uvarint(st.Applied)
		e.Uvarint(st.ReqsCompleted)
		e.Uvarint(uint64(st.Outstanding))
		return StatusOK, e.Bytes()
	case KindReconfig:
		return s.handleReconfig(rep, body)
	case KindMembership:
		// A replica parked after its own removal still knows a membership,
		// but a stale one — make the client ask a live member instead.
		if rep.Role() == core.RoleRemoved {
			return StatusError, []byte("replica removed from membership")
		}
		return StatusOK, reconfig.EncodeValue(rep.Membership())
	}
	return StatusError, []byte(fmt.Sprintf("unknown request kind %d", kind))
}

// liveMapFrom reads the live shard map from the map home replica's local
// replicated state; nil if the replica cannot answer (not the map home,
// still starting, stopped).
func liveMapFrom(rep *core.Replica) *shard.ShardMap {
	resp, err := rep.Query(rebalance.GetMapQuery())
	if err != nil {
		return nil
	}
	st, payload, err := shard.DecodeReply(resp)
	if err != nil || st != shard.ReplyOK {
		return nil
	}
	m, _, err := rebalance.DecodeGetMapReply(payload)
	if err != nil {
		return nil
	}
	return m
}

// errStatus maps a replica's error onto the wire. Routing errors the
// client loop tells apart (core.ErrStopped, readpath's primary-only and
// frontier/lease waits, ...) cross as their stable message strings under
// StatusError; statusErr decodes every answer back into the same error.
func errStatus(err error) (byte, []byte) {
	var np core.ErrNotPrimary
	if errors.As(err, &np) {
		e := wire.NewEncoder(nil)
		e.Varint(int64(np.Leader))
		return StatusNotPrimary, e.Bytes()
	}
	if errors.Is(err, core.ErrStaleSeq) {
		// The primary's dedup table has moved past this sequence
		// number; no replica will ever accept it again.
		return StatusFailed, []byte(err.Error())
	}
	// Both overload NACKs guarantee the request was never admitted into
	// the trace: the client may safely retry (or discard the op from a
	// linearizability history) without risking duplicate execution.
	if errors.Is(err, overload.ErrOverloaded) {
		return StatusOverloaded, overloadedBody(overload.RetryAfter(err))
	}
	if errors.Is(err, overload.ErrDeadlineExceeded) {
		return StatusDeadline, []byte(err.Error())
	}
	return StatusError, []byte(err.Error())
}

// overloadedBody encodes a StatusOverloaded response body: the uvarint
// retry-after hint in milliseconds (rounded up, minimum 1ms).
func overloadedBody(ra time.Duration) []byte {
	if ra <= 0 {
		ra = serverRetryAfter
	}
	ms := uint64((ra + time.Millisecond - 1) / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	e := wire.NewEncoder(nil)
	e.Uvarint(ms)
	return e.Bytes()
}

// decodeRetryAfter parses a StatusOverloaded body; a malformed body
// degrades to the server's default hint rather than an error — the
// status byte alone already carries the decision that matters.
func decodeRetryAfter(b []byte) time.Duration {
	d := wire.NewDecoder(b)
	ms := d.Uvarint()
	if d.Err() != nil || ms == 0 {
		return serverRetryAfter
	}
	if ms > uint64(overload.MaxWireDeadline/time.Millisecond) {
		return serverRetryAfter
	}
	return time.Duration(ms) * time.Millisecond
}

func (s *Server) handleReconfig(rep *core.Replica, body []byte) (byte, []byte) {
	d := wire.NewDecoder(body)
	ch := client.Change{Op: d.Byte(), ID: int(d.Uvarint()), NewID: int(d.Uvarint()), Addr: string(d.BytesVal())}
	if d.Err() != nil {
		return StatusError, []byte("malformed reconfig request")
	}
	err := ch.Apply(rep)
	var np core.ErrNotPrimary
	switch {
	case err == nil:
		return StatusOK, nil
	case errors.As(err, &np), errors.Is(err, core.ErrReconfigInFlight), errors.Is(err, core.ErrStopped):
		// Redirect, or transient: the in-flight change commits, or another
		// replica takes over; the same request can succeed later.
		return errStatus(err)
	default:
		// Membership validation rejections (already a member, not a
		// member, would drop below quorum) don't change on retry.
		return StatusFailed, []byte(err.Error())
	}
}

// GroupStatus is one replica's answer to a KindStatus request.
type GroupStatus struct {
	Role          core.Role
	Leader        int
	Applied       uint64
	ReqsCompleted uint64
	Outstanding   int
}

func decodeGroupStatus(b []byte) (GroupStatus, error) {
	d := wire.NewDecoder(b)
	st := GroupStatus{
		Role:          core.Role(d.Byte()),
		Leader:        int(d.Varint()),
		Applied:       d.Uvarint(),
		ReqsCompleted: d.Uvarint(),
		Outstanding:   int(d.Uvarint()),
	}
	return st, d.Err()
}

// frameConn is one connection's framing state. Reads go through a 4 kB
// bufio.Reader, so one read syscall usually returns a whole frame and any
// queued behind it; each outgoing frame is assembled in wbuf and leaves in
// one Write (one segment under TCP_NODELAY).
type frameConn struct {
	net.Conn
	br   *bufio.Reader
	rdl  time.Time // the read deadline last set on Conn
	wbuf []byte
}

// maxKeptWbuf bounds the write buffer a connection keeps between frames,
// so one large request or reply does not pin its size for the
// connection's life.
const maxKeptWbuf = 64 << 10

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{Conn: c, br: bufio.NewReader(c)}
}

// readFrame reads one frame with an optional overall deadline: a zero dl
// lets the connection idle forever between frames (the server's posture),
// a non-zero dl caps both the wait for the header and the wait for the
// body (a client honoring a context deadline). A body not already
// buffered must also arrive within frameBodyTimeout. The body grows as its
// bytes arrive (wire.ReadN), so a length prefix alone pins little memory.
func (fc *frameConn) readFrame(dl time.Time) ([]byte, error) {
	fc.setReadDeadline(dl)
	hdr, err := fc.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	fc.br.Discard(4)
	if n > maxFrame {
		return nil, errOversized
	}
	// Once a length has been announced the body must follow promptly; a
	// peer that dies mid-frame must not pin this handler forever.
	if fc.br.Buffered() < n {
		bodyDl := time.Now().Add(frameBodyTimeout)
		if !dl.IsZero() && dl.Before(bodyDl) {
			bodyDl = dl
		}
		fc.setReadDeadline(bodyDl)
	}
	buf, err := wire.ReadN(fc.br, n, 0)
	if err != nil {
		return nil, fmt.Errorf("server: truncated frame (%d of %d bytes): %w", len(buf), n, err)
	}
	return buf, nil
}

func (fc *frameConn) setReadDeadline(dl time.Time) {
	if !dl.Equal(fc.rdl) {
		fc.Conn.SetReadDeadline(dl)
		fc.rdl = dl
	}
}

// writeReply sends a response frame: length, status and body in one Write.
func (fc *frameConn) writeReply(status byte, body []byte) error {
	frame := binary.BigEndian.AppendUint32(fc.wbuf[:0], uint32(len(body)+1))
	frame = append(append(frame, status), body...)
	fc.wbuf = reuse(frame)
	_, err := fc.Write(frame)
	return err
}

// reuse returns frame's storage for the next frame, or nil once it has
// grown past maxKeptWbuf.
func reuse(frame []byte) []byte {
	if cap(frame) > maxKeptWbuf {
		return nil
	}
	return frame[:0]
}

// Client talks to one replica group's client ports: the shared client
// loop (internal/client) over the TCP protocol. The transport's mutex
// serializes calls, so one Client may be shared between goroutines (they
// queue). A call without a context deadline gets the loop's default one;
// DoCtx and QueryLevelCtx also bound their network I/O by, and propagate
// to the server, the ctx deadline.
type Client struct {
	*client.Client
	t *tcpTransport
}

// NewClient creates a client for an unsharded deployment (group 0) with a
// unique id over the given client addresses (one per replica, in
// replica-id order).
func NewClient(id uint64, addrs []string) *Client {
	return NewGroupClient(id, 0, addrs)
}

// NewGroupClient creates a client bound to one shard group. addrs are the
// client addresses of the group's replicas in replica-id order (for a
// sharded deployment: the nodes in the map's placement row).
func NewGroupClient(id uint64, group int, addrs []string) *Client {
	t := &tcpTransport{addrs: addrs, group: group, conns: make(map[int]*frameConn)}
	return &Client{Client: client.New(t, id), t: t}
}

// Status fetches the group's status from replica i.
func (c *Client) Status(i int) (GroupStatus, error) {
	resp, err := c.fetch(i, KindStatus)
	if err != nil {
		return GroupStatus{}, err
	}
	return decodeGroupStatus(resp)
}

// Membership fetches the group's committed membership from replica i.
func (c *Client) Membership(i int) (reconfig.Membership, error) {
	resp, err := c.fetch(i, KindMembership)
	if err != nil {
		return reconfig.Membership{}, err
	}
	return reconfig.DecodeValue(resp)
}

// FetchShardMap asks the replica at i for the deployment's shard map.
func (c *Client) FetchShardMap(i int) (*shard.ShardMap, error) {
	resp, err := c.fetch(i, KindShardMap)
	if err != nil {
		return nil, err
	}
	return shard.DecodeShardMapBytes(resp)
}

// LatestShardMap asks every address for the shard map and returns the
// highest version any of them serves.
func (c *Client) LatestShardMap() (*shard.ShardMap, error) {
	var best *shard.ShardMap
	err := errors.New("server: no node answered a map fetch")
	for i := range c.t.addrs {
		m, ferr := c.FetchShardMap(i)
		if ferr != nil {
			err = ferr
		} else if best == nil || m.Version > best.Version {
			best = m
		}
	}
	if best == nil {
		return nil, err
	}
	return best, nil
}

// fetch sends one bodiless request of kind to replica i, without retries,
// under the loop's default call deadline.
func (c *Client) fetch(i int, kind byte) ([]byte, error) {
	c.t.Lock()
	defer c.t.Unlock()
	resp, err := c.t.call(i, kind, c.ID, 0, nil, client.Timeout(context.Background()))
	if err != nil {
		return nil, fmt.Errorf("server: kind %d request to replica %d: %w", kind, i, err)
	}
	return resp, nil
}

// Close closes all connections.
func (c *Client) Close() {
	c.t.Lock()
	defer c.t.Unlock()
	for _, conn := range c.t.conns {
		conn.Close()
	}
	c.t.conns = make(map[int]*frameConn)
}

// tcpTransport is the client loop's transport over the TCP protocol: it
// frames each call to replica i of one group and decodes a non-OK answer
// back into the replica's typed error (statusErr, errStatus's inverse).
// The loop holds its mutex for each whole call.
type tcpTransport struct {
	sync.Mutex
	addrs []string
	group int
	conns map[int]*frameConn
	wbuf  []byte // request assembly buffer, reused across calls
	// tokCut is the storage answers' session tokens decode into: a
	// returned token is valid until the next call, and the loop observes
	// it into its session before then.
	tokCut trace.Cut
}

// epoch anchors the TCP clients' loop clock.
var epoch = time.Now()

func (t *tcpTransport) Size() int          { return len(t.addrs) }
func (t *tcpTransport) Now() time.Duration { return time.Since(epoch) }

// Sleep sleeps for d or until ctx is done.
func (t *tcpTransport) Sleep(ctx context.Context, d time.Duration) {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
	case <-tm.C:
	}
}

func (t *tcpTransport) Submit(i int, id, seq uint64, body []byte, budget time.Duration) ([]byte, readpath.Token, error) {
	resp, err := t.call(i, KindSubmitToken, id, seq, body, budget)
	if err != nil {
		return nil, readpath.Token{}, err
	}
	return t.decodeTokenResp(resp)
}

func (t *tcpTransport) QueryLevel(i int, level readpath.Level, tok readpath.Token, q []byte, budget time.Duration) ([]byte, readpath.Token, error) {
	n := tok.Size()
	e := wire.NewEncoder(make([]byte, 0, 1+wire.UvarintLen(uint64(n))+n+wire.UvarintLen(uint64(len(q)))+len(q)))
	e.Byte(byte(level))
	e.Uvarint(uint64(n))
	tok.Encode(e)
	e.BytesVal(q)
	resp, err := t.call(i, KindQueryLevel, 0, 0, e.Bytes(), budget)
	if err != nil {
		return nil, tok, err
	}
	return t.decodeTokenResp(resp)
}

// decodeTokenResp decodes a token-carrying answer into the transport's
// token scratch.
func (t *tcpTransport) decodeTokenResp(b []byte) ([]byte, readpath.Token, error) {
	resp, tok, err := decodeTokenResp(b, t.tokCut)
	if tok.Cut != nil {
		t.tokCut = tok.Cut
	}
	return resp, tok, err
}

func (t *tcpTransport) Query(i int, q []byte, budget time.Duration) ([]byte, error) {
	return t.call(i, KindQuery, 0, 0, q, budget)
}

func (t *tcpTransport) Reconfig(i int, ch client.Change, budget time.Duration) error {
	e := wire.NewEncoder(nil)
	e.Byte(ch.Op)
	e.Uvarint(uint64(ch.ID))
	e.Uvarint(uint64(ch.NewID))
	e.BytesVal([]byte(ch.Addr))
	_, err := t.call(i, KindReconfig, 0, 0, e.Bytes(), budget)
	return err
}

// call sends one request and returns the OK body, or the answer's status
// decoded into a typed error.
func (t *tcpTransport) call(i int, kind byte, id, seq uint64, body []byte, budget time.Duration) ([]byte, error) {
	status, resp, err := t.roundTrip(i, kind, id, seq, body, budget)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, statusErr(status, resp)
	}
	return resp, nil
}

func (t *tcpTransport) conn(i int) (*frameConn, error) {
	if conn, ok := t.conns[i]; ok {
		return conn, nil
	}
	c, err := net.Dial("tcp", t.addrs[i])
	if err != nil {
		return nil, err
	}
	conn := newFrameConn(c)
	t.conns[i] = conn
	return conn, nil
}

// roundTrip frames one request to replica i and reads the answer. budget
// bounds the network I/O and rides along as the request's trailing
// deadline, so every hop can fail fast instead of doing doomed work. The
// length prefix is patched in front of the encoded request, so the frame
// leaves in one Write.
func (t *tcpTransport) roundTrip(i int, kind byte, id, seq uint64, body []byte, budget time.Duration) (byte, []byte, error) {
	frame := appendRequest(append(t.wbuf[:0], 0, 0, 0, 0),
		wireRequest{kind: kind, group: uint64(t.group), client: id, seq: seq, body: body, budget: budget})
	t.wbuf = reuse(frame)
	n := len(frame) - 4
	if n > maxFrame {
		// The server would refuse the length prefix and drop the
		// connection; fail before poisoning the stream.
		return 0, nil, fmt.Errorf("%w: request frame of %d bytes exceeds the %d-byte limit",
			ErrPermanent, n, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	conn, err := t.conn(i)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", client.ErrUnreachable, err)
	}
	dl := time.Now().Add(budget)
	conn.SetWriteDeadline(dl)
	_, err = conn.Write(frame)
	var resp []byte
	if err == nil {
		resp, err = conn.readFrame(dl)
	}
	if err == nil && len(resp) < 1 {
		err = errors.New("server: empty response")
	}
	if err != nil {
		conn.Close()
		delete(t.conns, i)
		return 0, nil, fmt.Errorf("%w: %v", client.ErrLost, err)
	}
	return resp[0], resp[1:], nil
}

// statusErrors are the typed errors a StatusError answer may carry, by
// their stable messages (errStatus sends err.Error()).
var statusErrors = []error{
	core.ErrStopped,
	core.ErrReconfigInFlight,
	readpath.ErrPrimaryOnly,
	readpath.ErrFrontierWait,
	readpath.ErrLeaseWait,
}

// statusErr decodes a non-OK answer back into the typed error the replica
// returned, so the client loop treats a TCP answer exactly as it treats
// the in-process error.
func statusErr(status byte, body []byte) error {
	switch status {
	case StatusNotPrimary:
		d := wire.NewDecoder(body)
		leader := d.Varint()
		if d.Err() != nil {
			leader = -1
		}
		return core.ErrNotPrimary{Leader: int(leader)}
	case StatusOverloaded:
		return overload.Shed{RetryAfter: decodeRetryAfter(body)}
	case StatusDeadline:
		return overload.ErrDeadlineExceeded
	case StatusFailed:
		if string(body) == core.ErrStaleSeq.Error() {
			return core.ErrStaleSeq
		}
		return fmt.Errorf("%w: %s", ErrPermanent, body)
	}
	for _, known := range statusErrors {
		if string(body) == known.Error() {
			return known
		}
	}
	return errors.New(string(body))
}

// tokenResp appends a token-carrying OK body to dst: the session token
// covering the answer, then the response.
func tokenResp(dst []byte, tok readpath.Token, resp []byte) []byte {
	e := wire.NewEncoder(dst)
	e.Uvarint(uint64(tok.Size()))
	tok.Encode(e)
	e.BytesVal(resp)
	return e.Bytes()
}

// decodeTokenResp splits a token-carrying OK body into response and token,
// decoding the token's cut into cut's storage (see readpath.DecodeToken).
func decodeTokenResp(b []byte, cut trace.Cut) ([]byte, readpath.Token, error) {
	d := wire.NewDecoder(b)
	tokB := d.BytesVal()
	resp := d.BytesVal()
	if d.Err() != nil {
		return nil, readpath.Token{}, fmt.Errorf("server: malformed token response: %w", d.Err())
	}
	tok, err := readpath.DecodeTokenBytes(tokB, cut)
	if err != nil {
		return nil, readpath.Token{}, err
	}
	return resp, tok, nil
}

// groupClients builds one client per group of m, each over its placement
// row of nodeAddrs (node id → client address), with ids idBase+group.
func groupClients(idBase uint64, m *shard.ShardMap, nodeAddrs []string) ([]shard.GroupClient, error) {
	if len(nodeAddrs) != m.Nodes {
		return nil, fmt.Errorf("server: %d node addresses for a %d-node map", len(nodeAddrs), m.Nodes)
	}
	clients := make([]shard.GroupClient, m.Groups())
	for g := range clients {
		addrs := make([]string, m.Replicas(g))
		for r := range addrs {
			addrs[r] = nodeAddrs[m.Placement[g][r]]
		}
		clients[g] = NewGroupClient(idBase+uint64(g), g, addrs)
	}
	return clients, nil
}

// NewShardRouter builds a keyed router over a sharded deployment:
// nodeAddrs maps node id → that process's client address, and each
// group's client follows that group's placement row. Client ids are
// idBase+group.
func NewShardRouter(idBase uint64, m *shard.ShardMap, nodeAddrs []string) (*shard.Router, error) {
	clients, err := groupClients(idBase, m, nodeAddrs)
	if err != nil {
		return nil, err
	}
	return shard.NewRouter(m, clients)
}

// NewCoordinator returns a rebalance coordinator over per-group clients
// of a rebalance-enabled deployment (client ids idBase+group, each
// following its group's placement row).
func NewCoordinator(idBase uint64, m *shard.ShardMap, nodeAddrs []string) (*rebalance.Coordinator, error) {
	clients, err := groupClients(idBase, m, nodeAddrs)
	if err != nil {
		return nil, err
	}
	return &rebalance.Coordinator{Groups: clients, Home: 0}, nil
}

// NewLiveShardRouter is NewShardRouter for a rebalance-enabled
// deployment: the router speaks the rebalance envelope and refetches the
// live map (highest version any node serves for kind 3) on wrong-group,
// stale, or permanent errors. An extra client id idBase+groups is used
// for map fetches.
func NewLiveShardRouter(idBase uint64, m *shard.ShardMap, nodeAddrs []string) (*shard.Router, error) {
	m = m.Clone()
	m.EnsureRanges()
	r, err := NewShardRouter(idBase, m, nodeAddrs)
	if err != nil {
		return nil, err
	}
	mapClient := NewGroupClient(idBase+uint64(m.Groups()), 0, nodeAddrs)
	r.Enveloped = true
	r.ClientID = idBase
	r.Fetch = mapClient.LatestShardMap
	return r, nil
}
