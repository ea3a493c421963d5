package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rex/internal/obs"
	"rex/internal/wire"
)

// TCPEndpoint implements Endpoint over TCP for real deployments
// (cmd/rexd). Peers dial lazily and reconnect on failure; a message that
// cannot be delivered is dropped, which the consensus engine tolerates.
// Use only under the real environment (it blocks OS threads).
//
// Concurrency design:
//   - ep.mu guards the closed flag and the accepted-connection set; it is
//     never held across network I/O.
//   - Each peer has its own tcpPeer with a write lock held across
//     dial+write, so one stalled or unreachable peer cannot block sends
//     to the others. A send to self dials the endpoint's own listener,
//     so it too is delivered by a reader, never on the sender's stack.
//   - Each inbound connection has one reader goroutine, which calls the
//     handler with a view into its read buffer and reads the next frame
//     once the handler returns. Readers of different connections call
//     the handler concurrently.
//   - Close stops the accept and read loops, closes their connections,
//     and waits for them (ep.wg).
type TCPEndpoint struct {
	id int
	ln net.Listener

	mu       sync.Mutex
	closed   bool
	accepted map[net.Conn]struct{}

	// peersMu guards the address book and peer slots, which change at
	// runtime as membership changes (SetPeer); never held across I/O.
	peersMu sync.Mutex
	addrs   map[int]string
	peers   map[int]*tcpPeer

	in Inlet
	wg sync.WaitGroup

	// Metrics (always collected; RegisterMetrics exports them).
	framesIn  *obs.Counter
	bytesIn   *obs.Counter
	framesOut *obs.Counter
	bytesOut  *obs.Counter
	drops     *obs.Counter // undeliverable sends
	redials   *obs.Counter // connections (re)established
}

// tcpPeer is one outbound connection slot. writeMu serializes dialing and
// writing to this peer only; connMu guards the conn pointer so Close can
// shut a stalled write down without taking writeMu.
type tcpPeer struct {
	writeMu sync.Mutex
	wbuf    []byte // frame assembly buffer for small frames, guarded by writeMu

	connMu sync.Mutex
	conn   net.Conn
}

// Frame: [4-byte big-endian length][4-byte big-endian sender id][payload].
const tcpMaxFrame = 64 << 20

// frameBodyTimeout bounds how long a connection may dangle between a
// frame's header and its last payload byte; between frames it may idle
// forever. A package variable so the stall test doesn't take 10 seconds.
var frameBodyTimeout = 10 * time.Second

// tcpStageMax is the largest payload Send assembles into the peer's write
// buffer. Larger ones (checkpoint pushes) go out as header and payload in
// one vectored write, so they are never copied and the buffer never grows
// to the largest frame ever sent.
const tcpStageMax = 32 << 10

// ListenTCP starts an endpoint for replica id; addrs[i] is replica i's
// listen address.
func ListenTCP(id int, addrs []string) (*TCPEndpoint, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("transport: id %d out of range for %d peers", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, err
	}
	ep := &TCPEndpoint{
		id:       id,
		ln:       ln,
		accepted: make(map[net.Conn]struct{}),
		addrs:    make(map[int]string, len(addrs)),
		peers:    make(map[int]*tcpPeer, len(addrs)),

		framesIn:  obs.NewCounter(),
		bytesIn:   obs.NewCounter(),
		framesOut: obs.NewCounter(),
		bytesOut:  obs.NewCounter(),
		drops:     obs.NewCounter(),
		redials:   obs.NewCounter(),
	}
	for i, a := range addrs {
		if a == "" {
			continue // unknown peer; SetPeer fills it in later
		}
		ep.addrs[i] = a
		ep.peers[i] = &tcpPeer{}
	}
	ep.addrs[id] = ln.Addr().String() // self-sends dial the bound port
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ID implements Endpoint.
func (ep *TCPEndpoint) ID() int { return ep.id }

// SetPeer installs or updates the address for peer id, so deployments can
// attach joiners (and re-point replaced ids) as membership changes commit.
// An address change drops the cached connection; the next Send re-dials.
// An empty addr removes the peer.
func (ep *TCPEndpoint) SetPeer(id int, addr string) {
	if id < 0 || id == ep.id {
		return
	}
	ep.peersMu.Lock()
	old, had := ep.addrs[id]
	var stale net.Conn
	if addr == "" {
		delete(ep.addrs, id)
		if p := ep.peers[id]; p != nil {
			p.connMu.Lock()
			stale = p.conn
			p.conn = nil
			p.connMu.Unlock()
		}
		delete(ep.peers, id)
	} else {
		ep.addrs[id] = addr
		if _, ok := ep.peers[id]; !ok {
			ep.peers[id] = &tcpPeer{}
		}
		if had && old != addr {
			p := ep.peers[id]
			p.connMu.Lock()
			stale = p.conn
			p.conn = nil
			p.connMu.Unlock()
		}
	}
	ep.peersMu.Unlock()
	if stale != nil {
		stale.Close()
	}
}

// Addr returns the bound listen address.
func (ep *TCPEndpoint) Addr() net.Addr { return ep.ln.Addr() }

// RegisterMetrics exports the endpoint's counters, and the depth of the
// frames held for a handler not yet attached, into reg under tcp_-prefixed
// names (see DESIGN.md "Observability").
func (ep *TCPEndpoint) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("tcp_frames_in_total", ep.framesIn)
	reg.RegisterCounter("tcp_bytes_in_total", ep.bytesIn)
	reg.RegisterCounter("tcp_frames_out_total", ep.framesOut)
	reg.RegisterCounter("tcp_bytes_out_total", ep.bytesOut)
	reg.RegisterCounter("tcp_drops_total", ep.drops)
	reg.RegisterCounter("tcp_redials_total", ep.redials)
	reg.RegisterGaugeFunc("tcp_inbox_depth", func() int64 { return int64(ep.in.Pending()) })
}

func (ep *TCPEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return
		}
		// Register the connection before spawning its read loop so Close
		// can unblock it; wg.Add under mu with closed==false is ordered
		// before Close's wg.Wait.
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			conn.Close()
			return
		}
		ep.accepted[conn] = struct{}{}
		ep.wg.Add(1)
		ep.mu.Unlock()
		go ep.readLoop(conn)
	}
}

// readLoop delivers one inbound connection's frames to the handler.
func (ep *TCPEndpoint) readLoop(conn net.Conn) {
	defer func() {
		ep.mu.Lock()
		delete(ep.accepted, conn)
		ep.mu.Unlock()
		conn.Close()
		ep.wg.Done()
	}()
	fr := frameReader{br: bufio.NewReader(conn), conn: conn}
	for {
		d, err := fr.next()
		if err != nil {
			return
		}
		ep.framesIn.Inc()
		ep.bytesIn.Add(uint64(len(d.Payload)))
		ep.in.Deliver(d)
	}
}

// frameReader reads one connection's frames through a 4 kB buffer, so one
// read usually returns a whole frame and any queued behind it.
type frameReader struct {
	br   *bufio.Reader
	conn net.Conn // for the body deadline; nil for none
	// largest is the largest frame read into a buffer of its own.
	largest int
	// lent is the length of the frame last lent out of br, which the
	// next read drops from the buffer.
	lent int
}

// next reads one frame. A payload that fits the read buffer is lent: a
// view into the buffer, valid until the next call. A larger one is read
// into a buffer of its own that grows as its bytes arrive (wire.ReadN),
// so a header announcing 64 MB with nothing behind it costs 64 kB, not
// 64 MB; and a payload of up to twice the largest such frame so far is
// allocated at once, so a connection that carries checkpoint pushes reads
// the next push, even of a state that grew meanwhile, into one
// allocation, while what it trusts is still bounded by bytes it received.
// A payload not already buffered must arrive within frameBodyTimeout.
func (fr *frameReader) next() (Delivery, error) {
	fr.br.Discard(fr.lent)
	fr.lent = 0
	hdr, err := fr.br.Peek(8)
	if err != nil {
		return Delivery{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	d := Delivery{From: int(binary.BigEndian.Uint32(hdr[4:8]))}
	fr.br.Discard(8)
	if n > tcpMaxFrame {
		return Delivery{}, errors.New("transport: oversized frame")
	}
	timed := fr.conn != nil && fr.br.Buffered() < n
	if timed {
		fr.conn.SetReadDeadline(time.Now().Add(frameBodyTimeout))
	}
	if n <= fr.br.Size() {
		d.Payload, err = fr.br.Peek(n)
		d.Lent = true
		fr.lent = len(d.Payload)
	} else {
		d.Payload, err = wire.ReadN(fr.br, n, 2*fr.largest)
		fr.largest = max(fr.largest, n)
	}
	if err != nil {
		return Delivery{}, err
	}
	if timed {
		fr.conn.SetReadDeadline(time.Time{})
	}
	return d, nil
}

// appendFrame assembles a frame into buf (reusing its capacity) so header
// and payload go out in one Write: no partial-frame interleaving is
// possible even if a connection were shared, and the syscall count halves.
func appendFrame(buf []byte, from int, payload []byte) []byte {
	return append(appendFrameHeader(buf[:0], from, len(payload)), payload...)
}

func appendFrameHeader(buf []byte, from, n int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	return binary.BigEndian.AppendUint32(buf, uint32(from))
}

// writeFrame sends one frame to c: small frames assembled in p.wbuf, large
// ones as a vectored write of the header and the caller's payload, which
// is never copied. Called with p.writeMu held.
func (p *tcpPeer) writeFrame(c net.Conn, from int, payload []byte) error {
	if len(payload) <= tcpStageMax {
		p.wbuf = appendFrame(p.wbuf, from, payload)
		_, err := c.Write(p.wbuf)
		return err
	}
	p.wbuf = appendFrameHeader(p.wbuf[:0], from, len(payload))
	bufs := net.Buffers{p.wbuf, payload}
	_, err := bufs.WriteTo(c)
	return err
}

func (ep *TCPEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

// getConn returns the peer's live connection, dialing if needed. Called
// with p.writeMu held; the dial blocks only senders to this peer.
func (ep *TCPEndpoint) getConn(to int, p *tcpPeer) (net.Conn, error) {
	p.connMu.Lock()
	c := p.conn
	p.connMu.Unlock()
	if c != nil {
		return c, nil
	}
	if ep.isClosed() {
		return nil, errors.New("transport: endpoint closed")
	}
	ep.peersMu.Lock()
	addr := ep.addrs[to]
	ep.peersMu.Unlock()
	if addr == "" {
		return nil, errors.New("transport: no address for peer")
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	p.connMu.Lock()
	// Recheck closed while holding connMu: Close iterates peers under
	// connMu after setting closed, so either it sees this conn and closes
	// it, or we see closed here and back out.
	if ep.isClosed() {
		p.connMu.Unlock()
		c.Close()
		return nil, errors.New("transport: endpoint closed")
	}
	p.conn = c
	p.connMu.Unlock()
	ep.redials.Inc()
	return c, nil
}

// dropConn discards a failed connection so the next Send re-dials.
func (p *tcpPeer) dropConn(c net.Conn) {
	p.connMu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.connMu.Unlock()
	c.Close()
}

// Send implements Endpoint. Failures drop the message and the cached
// connection; the next Send re-dials. Sends to different peers proceed
// independently: only senders to the same peer serialize. The payload is
// written (or staged and written) before Send returns.
func (ep *TCPEndpoint) Send(to int, payload []byte) {
	if to < 0 {
		ep.drops.Inc()
		return
	}
	ep.peersMu.Lock()
	p := ep.peers[to]
	ep.peersMu.Unlock()
	if p == nil {
		ep.drops.Inc()
		return
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	c, err := ep.getConn(to, p)
	if err != nil {
		ep.drops.Inc()
		return
	}
	if err := p.writeFrame(c, ep.id, payload); err != nil {
		p.dropConn(c)
		ep.drops.Inc()
		return
	}
	ep.framesOut.Inc()
	ep.bytesOut.Add(uint64(len(payload)))
}

// Attach implements Endpoint. Frames read before it are held, in order,
// and handed to h before any later frame.
func (ep *TCPEndpoint) Attach(h Handler) { ep.in.Attach(h) }

// Close implements Endpoint. It stops delivery, stops the accept and read
// loops, closes every connection (unblocking stalled reads and writes),
// and waits for the loops to exit.
func (ep *TCPEndpoint) Close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	ep.in.Close()
	conns := make([]net.Conn, 0, len(ep.accepted))
	for c := range ep.accepted {
		conns = append(conns, c)
	}
	ep.mu.Unlock()

	ep.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	ep.peersMu.Lock()
	peers := make([]*tcpPeer, 0, len(ep.peers))
	for _, p := range ep.peers {
		peers = append(peers, p)
	}
	ep.peersMu.Unlock()
	for _, p := range peers {
		p.connMu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.connMu.Unlock()
	}
	ep.wg.Wait()
}
