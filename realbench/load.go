package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"rex/internal/apps"
	"rex/internal/apps/hashdb"
	"rex/internal/apps/lsmkv"
	"rex/internal/readpath"
	"rex/internal/server"
	"rex/internal/wire"
)

// workload is one traffic mix. Each of the two clients owns half the key
// space, so the benchmark knows the final value of every key.
type workload struct {
	name    string
	why     string
	app     apps.App
	keys    int // key space, split evenly between the clients
	prefill int // keys written during set-up, split evenly
	// linPct and sessionPct are the shares of linearizable and session
	// reads; the rest of the ops are writes.
	linPct, sessionPct int
	// interval is each connection's send period in an open loop; 0 means
	// a closed loop.
	interval time.Duration
	// killEvery, when set, stops the current primary this often and
	// restarts it killDown later.
	killEvery, killDown time.Duration
	set                 func(key string, val []byte) []byte
	get                 func(key string) []byte
}

const (
	numClients = 2
	valueBytes = 100
	opTimeout  = 2 * time.Second // closed-loop ops and verification reads
	// An open-loop op retries until it is acknowledged or openOpDeadline
	// has passed since it was due.
	openOpDeadline  = 5 * time.Second
	openAttemptTime = time.Second
)

var workloads = []workload{
	{
		name: "put",
		why:  "100% lsmkv puts, closed loop: every op crosses the whole commit path (record, Paxos, TCP, WAL, replay, checkpoints); reads idle",
		app:  apps.LSMKV(), keys: 50000, prefill: 2000,
		set: lsmkv.PutReq, get: lsmkv.GetReq,
	},
	{
		name: "read-mostly",
		why:  "hashdb, closed loop: 45% linearizable reads, 45% session reads, 10% sets; reads skip consensus and the WAL",
		app:  apps.HashDB(), keys: 2000, prefill: 2000, linPct: 45, sessionPct: 45,
		set: hashdb.SetReq, get: hashdb.GetReq,
	},
	{
		name: "failover",
		why:  "hashdb sets, open loop at 200/s per connection, primary stopped every 1.5 s: elections, promotion, rebuild, rejoin",
		app:  apps.HashDB(), keys: 2000, prefill: 2000, interval: 5 * time.Millisecond,
		killEvery: 1500 * time.Millisecond, killDown: 300 * time.Millisecond,
		set: hashdb.SetReq, get: hashdb.GetReq,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keyName is a 16-byte key.
func keyName(k int) string { return fmt.Sprintf("key-%012d", k) }

// valueFor is the 100-byte value a client writes with op sequence seq: a
// parseable header and a seed-dependent filler.
func valueFor(seed int64, client int, seq int64) []byte {
	v := make([]byte, 0, valueBytes)
	v = fmt.Appendf(v, "c%d:%d:", client, seq)
	for i := len(v); i < valueBytes; i++ {
		v = append(v, byte('a'+(uint64(seed)*31+uint64(seq)*7+uint64(i))%26))
	}
	return v
}

// parseSeq extracts the op sequence from a value written by client.
func parseSeq(client int, v []byte) (int64, bool) {
	prefix := fmt.Sprintf("c%d:", client)
	s := string(v)
	if !strings.HasPrefix(s, prefix) {
		return 0, false
	}
	rest := s[len(prefix):]
	i := strings.IndexByte(rest, ':')
	if i <= 0 {
		return 0, false
	}
	seq, err := strconv.ParseInt(rest[:i], 10, 64)
	return seq, err == nil
}

// decodeGet checks the shape of a get response: found flag, value, nothing
// else.
func decodeGet(resp []byte) (found bool, val []byte, err error) {
	d := wire.NewDecoder(resp)
	found = d.Bool()
	val = d.BytesVal()
	if d.Err() != nil || d.Remaining() != 0 {
		return false, nil, fmt.Errorf("malformed get response %q", resp)
	}
	if !found && len(val) != 0 {
		return false, nil, fmt.Errorf("get response carries a value for a missing key")
	}
	return found, val, nil
}

// ack is one acknowledged write: when the successful attempt was sent and
// when its reply arrived.
type ack struct{ sent, done time.Time }

// client is one closed- or open-loop connection and its model of the keys
// it owns. Only its own goroutine touches it while load runs.
type client struct {
	id    int
	seed  int64
	w     workload
	cl    *server.Client
	rng   *rand.Rand
	lo    int // first owned key
	n     int // owned keys
	seq   int64
	last  map[int]int64   // key -> seq of the last acknowledged write
	maybe map[int][]int64 // key -> seqs written after it whose outcome is unknown

	// Samples of the measured window.
	writeLat, linLat, sessLat []time.Duration
	attemptLat                []time.Duration // successful write attempts only
	late                      []time.Duration // open loop: send time minus due time
	acks                      []ack
	attempted, failed         int
	retries                   int
	err                       error // first correctness violation
}

func newClients(w workload, addrs []string, seed int64) []*client {
	out := make([]*client, numClients)
	per := w.keys / numClients
	for i := range out {
		out[i] = &client{
			id:    i,
			seed:  seed,
			w:     w,
			cl:    server.NewClient(uint64(i)+1, addrs),
			rng:   rand.New(rand.NewSource(seed*1000003 + int64(i))),
			lo:    i * per,
			n:     per,
			last:  make(map[int]int64),
			maybe: make(map[int][]int64),
		}
	}
	return out
}

func (c *client) close() { c.cl.Close() }

func (c *client) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: client %d: "+format, append([]any{errIncorrect, c.id}, args...)...)
	}
}

// resetSamples starts the measured window.
func (c *client) resetSamples() {
	c.writeLat, c.linLat, c.sessLat = nil, nil, nil
	c.attemptLat, c.late, c.acks = nil, nil, nil
	c.attempted, c.failed, c.retries = 0, 0, 0
}

// prefill writes the client's first keys before measurement.
func (c *client) prefill(keys int) error {
	for k := c.lo; k < c.lo+keys; k++ {
		if _, err := c.writeOnce(context.Background(), k); err != nil {
			return fmt.Errorf("prefill %s: %w", keyName(k), err)
		}
	}
	return c.err
}

// writeOnce sends one write of key k with its own timeout, updates the
// model and returns the write's latency.
func (c *client) writeOnce(parent context.Context, k int) (time.Duration, error) {
	c.seq++
	seq := c.seq
	ctx, cancel := context.WithTimeout(parent, opTimeout)
	defer cancel()
	start := time.Now()
	resp, err := c.cl.DoCtx(ctx, c.w.set(keyName(k), valueFor(c.seed, c.id, seq)))
	lat := time.Since(start)
	if err != nil {
		c.maybe[k] = append(c.maybe[k], seq)
		return lat, err
	}
	c.acked(k, seq, resp)
	return lat, nil
}

// acked records an acknowledged write of seq to k.
func (c *client) acked(k int, seq int64, resp []byte) {
	if !bytes.Equal(resp, []byte{1}) {
		c.fail("write %s: unexpected response %q", keyName(k), resp)
	}
	c.last[k] = seq
	// Earlier writes whose outcome was unknown are ordered before this one
	// or never: the value read back must be this one.
	delete(c.maybe, k)
}

// checkValue checks a read of key k against the model: it must return the
// last acknowledged write or a later one whose outcome was unknown.
func (c *client) checkValue(k int, found bool, val []byte) error {
	last := c.last[k]
	if !found {
		if last != 0 {
			return fmt.Errorf("%s: missing, want the write with seq %d", keyName(k), last)
		}
		return nil
	}
	seq, ok := parseSeq(c.id, val)
	if !ok || !bytes.Equal(val, valueFor(c.seed, c.id, seq)) {
		return fmt.Errorf("%s: value %q was never written", keyName(k), val)
	}
	if seq == last {
		return nil
	}
	for _, s := range c.maybe[k] {
		if s == seq && s > last {
			return nil
		}
	}
	return fmt.Errorf("%s: read the write with seq %d, want %d", keyName(k), seq, last)
}

// read sends one read at level and checks it.
func (c *client) read(level readpath.Level, k int) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	resp, err := c.cl.QueryLevelCtx(ctx, level, c.w.get(keyName(k)))
	lat := time.Since(start)
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	if level == readpath.Linearizable {
		c.linLat = append(c.linLat, lat)
	} else {
		c.sessLat = append(c.sessLat, lat)
	}
	found, val, err := decodeGet(resp)
	if err == nil {
		err = c.checkValue(k, found, val)
	}
	if err != nil {
		c.fail("%s read: %v", level, err)
	}
}

// runClosed issues ops back to back until end.
func (c *client) runClosed(end time.Time, tr *tracer) {
	for time.Now().Before(end) && c.err == nil {
		r := c.rng.Intn(100)
		k := c.lo + c.rng.Intn(c.n)
		start := time.Now()
		kind := spanWrite
		switch {
		case r < c.w.linPct:
			kind = spanLinRead
			c.read(readpath.Linearizable, k)
		case r < c.w.linPct+c.w.sessionPct:
			kind = spanSessionRead
			c.read(readpath.Session, k)
		default:
			c.attempted++
			lat, err := c.writeOnce(context.Background(), k)
			if err != nil {
				c.failed++
			} else {
				c.writeLat = append(c.writeLat, lat)
				c.attemptLat = append(c.attemptLat, lat)
			}
		}
		if tr != nil {
			// The op id is the op's position in this client's window.
			tr.record(kind, c.id, start, int64(c.attempted))
		}
	}
}

// runOpen sends one write every interval from start until end, timing each
// from when it was due. A write that fails is retried until it is
// acknowledged or openOpDeadline has passed since it was due.
func (c *client) runOpen(start, end time.Time, tr *tracer) {
	for i := 0; c.err == nil; i++ {
		due := start.Add(time.Duration(i) * c.w.interval)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		c.late = append(c.late, time.Since(due))
		k := c.lo + c.rng.Intn(c.n)
		c.seq++
		seq := c.seq
		body := c.w.set(keyName(k), valueFor(c.seed, c.id, seq))
		c.attempted++
		for {
			sent := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), openAttemptTime)
			resp, err := c.cl.DoCtx(ctx, body)
			cancel()
			if tr != nil {
				tr.record(spanWrite, c.id, sent, int64(c.attempted))
			}
			if err == nil {
				now := time.Now()
				c.acked(k, seq, resp)
				c.writeLat = append(c.writeLat, now.Sub(due))
				c.attemptLat = append(c.attemptLat, now.Sub(sent))
				c.acks = append(c.acks, ack{sent: sent, done: now})
				break
			}
			if time.Since(due) > openOpDeadline || errors.Is(err, server.ErrPermanent) {
				c.maybe[k] = append(c.maybe[k], seq)
				c.failed++
				break
			}
			c.retries++
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// sampleKeys picks the keys verification reads back: every written key
// when there are few, else an even spread of them, plus a few unwritten
// keys that must read as missing.
func (c *client) sampleKeys(max int) []int {
	var written []int
	for k := c.lo; k < c.lo+c.n; k++ {
		if c.last[k] != 0 || len(c.maybe[k]) > 0 {
			written = append(written, k)
		}
	}
	step := 1
	if len(written) > max {
		step = len(written) / max
	}
	var out []int
	for i := 0; i < len(written); i += step {
		out = append(out, written[i])
	}
	for k := c.lo; k < c.lo+c.n && len(out) < max+max/8; k++ {
		if c.last[k] == 0 && len(c.maybe[k]) == 0 {
			out = append(out, k)
		}
	}
	return out
}
