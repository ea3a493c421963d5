// Package client holds the one retry loop every Rex client runs: it
// sends each write and each linearizable read to the believed primary,
// follows `not primary` leader hints, pauses on overload retry-after
// hints, charges retries after a shed to a token-bucket budget, routes
// weaker reads over the secondaries with a session token, and records
// every operation into a linearizability history.
//
// The loop runs over a Transport that reaches replica i of one group.
// cluster.Client is the loop over in-process replicas (simulated or
// real time); server.Client is the loop over the TCP client protocol.
// A Client carries no lock of its own: a Transport that also implements
// sync.Locker is locked for each whole call, so its Client may be shared
// between goroutines; otherwise callers sharing one must serialize.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
)

// Transport reaches the replicas of one group. Every method returns the
// replica's own typed errors (core.ErrNotPrimary, core.ErrStaleSeq,
// readpath.ErrPrimaryOnly, overload.Shed, ...), plus ErrUnreachable when
// the request never reached replica i and ErrLost when the connection
// failed after it may have.
type Transport interface {
	// Size is the number of replica slots; targets are taken modulo it.
	Size() int
	// Now and Sleep are the loop's clock. Sleep may return early once
	// ctx is done.
	Now() time.Duration
	Sleep(ctx context.Context, d time.Duration)
	// Submit runs a replicated request on replica i; budget is the time
	// left before the call's deadline.
	Submit(i int, client, seq uint64, body []byte, budget time.Duration) ([]byte, readpath.Token, error)
	// QueryLevel runs a read at level on replica i, presenting tok.
	QueryLevel(i int, level readpath.Level, tok readpath.Token, q []byte, budget time.Duration) ([]byte, readpath.Token, error)
	// Query runs a read-only query on replica i's local state.
	Query(i int, q []byte, budget time.Duration) ([]byte, error)
	// Reconfig proposes a membership change to replica i.
	Reconfig(i int, ch Change, budget time.Duration) error
}

// Recorder observes client operations as a concurrent history for the
// linearizability checker (implemented by check.History).
type Recorder interface {
	// Invoke records an operation's start and returns its id.
	Invoke(client uint64, input []byte) uint64
	// Return records a successful completion with the response bytes.
	Return(id uint64, output []byte)
	// Timeout marks the operation's outcome as unknown: it may or may not
	// take effect at any point after the invocation.
	Timeout(id uint64)
	// Discard drops an operation no attempt of which can have executed
	// (every attempt was a definite did-not-execute NACK), which keeps the
	// checker's search space bounded under overload.
	Discard(id uint64)
}

// Finish settles operation id in rec: Return on success, Timeout when
// some attempt's outcome is unknown, Discard otherwise.
func Finish(rec Recorder, id uint64, resp []byte, err error, unknown bool) {
	switch {
	case err == nil:
		rec.Return(id, resp)
	case unknown:
		rec.Timeout(id)
	default:
		rec.Discard(id)
	}
}

var (
	// ErrPermanent marks failures that no retry against this target can
	// fix: a stale sequence number, a group the node does not host, a
	// membership change the membership rejects, an unframeable request.
	// The loop returns it at once, and a rebalance-aware router treats it
	// as "refetch the map and reroute".
	ErrPermanent = errors.New("client: permanent failure")
	// ErrUnreachable: the request never reached the replica (its slot is
	// down, or the dial failed), so it cannot have executed.
	ErrUnreachable = errors.New("client: replica unreachable")
	// ErrLost: the connection failed after the request may have been
	// sent, so its outcome is unknown.
	ErrLost = errors.New("client: connection lost")
	// ErrTooManyAttempts reports a call abandoned after maxAttempts
	// tries. Like a timeout, the outcome of a write is unknown.
	ErrTooManyAttempts = errors.New("client: too many attempts")
)

// Class is how the loop treats the error one attempt returned.
type Class uint8

const (
	classOK          Class = iota
	classNotPrimary        // core.ErrNotPrimary: follow the leader hint
	classShed              // overload.ErrOverloaded: pause, not executed
	classStaleSeq          // core.ErrStaleSeq: give up, outcome unknown
	classFinal             // overload.ErrDeadlineExceeded, ErrPermanent: give up
	classPrimaryOnly       // readpath.ErrPrimaryOnly: read on the primary
	classAgain             // frontier/lease waits, core.ErrReconfigInFlight: ask again
	classDown              // core.ErrStopped, ErrLost: move on, outcome unknown
	classUnreachable       // ErrUnreachable: move on, not executed
	classUnknown           // anything else
)

// Classify maps an attempt's error to its Class. Two errors with the same
// Class get the same treatment from the loop.
func Classify(err error) Class {
	if err == nil {
		return classOK // before np, which escapes: no allocation on success
	}
	var np core.ErrNotPrimary
	switch {
	case errors.As(err, &np):
		return classNotPrimary
	case errors.Is(err, overload.ErrOverloaded):
		return classShed
	case errors.Is(err, core.ErrStaleSeq):
		return classStaleSeq
	case errors.Is(err, overload.ErrDeadlineExceeded), errors.Is(err, ErrPermanent):
		return classFinal
	case errors.Is(err, readpath.ErrPrimaryOnly):
		return classPrimaryOnly
	case errors.Is(err, readpath.ErrFrontierWait), errors.Is(err, readpath.ErrLeaseWait),
		errors.Is(err, core.ErrReconfigInFlight):
		return classAgain
	case errors.Is(err, core.ErrStopped), errors.Is(err, ErrLost):
		return classDown
	case errors.Is(err, ErrUnreachable):
		return classUnreachable
	}
	return classUnknown
}

// Membership change operations (Change.Op; also their wire encoding).
const (
	OpAdd     byte = 1
	OpRemove  byte = 2
	OpReplace byte = 3
)

// Change is a membership change: add ID, remove ID, or replace ID with
// NewID. Addr is the new member's paxos address (empty in-process).
type Change struct {
	Op        byte
	ID, NewID int
	Addr      string
}

// Apply proposes the change to replica r.
func (ch Change) Apply(r *core.Replica) error {
	switch ch.Op {
	case OpAdd:
		return r.AddMember(ch.ID, ch.Addr)
	case OpRemove:
		return r.RemoveMember(ch.ID)
	case OpReplace:
		return r.ReplaceMember(ch.ID, ch.NewID, ch.Addr)
	}
	return fmt.Errorf("%w: unknown reconfig op %d", ErrPermanent, ch.Op)
}

// maxAttempts bounds one call's redirect-and-retry loop. With the backoff
// schedule below it gives a few seconds of retrying — plenty for any
// election — so a request that still cannot land (a partitioned
// majority, a stale map) fails with ErrTooManyAttempts instead of
// spinning until the deadline.
const maxAttempts = 256

// Retry backoff: exponential from 1ms, jittered in [b/2, b], capped so a
// long outage is probed every ~25ms rather than ever more rarely.
const (
	minBackoff = time.Millisecond
	maxBackoff = 25 * time.Millisecond
)

// Retry budget: a token bucket refilled by successes. Each retry after a
// shed spends a token; every success earns back budgetRatio. The bucket
// starts full at budgetBurst, so cold-start elections and short outages
// ride through; only sustained overload — where retries become pure
// amplification — drains it. With ratio 0.5, steady-state retry traffic
// is capped at 50% of goodput.
const (
	budgetRatio = 0.5
	budgetBurst = 64
)

// maxPause caps a server retry-after hint: the hint shapes the pause, the
// loop keeps owning the overall policy.
const maxPause = 50 * time.Millisecond

// callTimeout is the deadline of a call made without one.
var callTimeout = 30 * time.Second

// Timeout returns the time left before ctx's deadline, or the default
// call deadline when ctx has none.
func Timeout(ctx context.Context) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl)
	}
	return callTimeout
}

// Client submits requests to one group with retry and primary discovery.
// Every write and session read folds the response's session token into
// the client's session, so session reads are read-your-writes and
// monotonic across replicas.
type Client struct {
	ID uint64
	// Recorder, when set, observes every write and every linearizable
	// read for the consistency checker.
	Recorder Recorder
	// BudgetExhausted counts calls abandoned on a dry retry budget (the
	// client-side analogue of rex_retry_budget_exhausted_total).
	BudgetExhausted uint64

	t       Transport
	seq     uint64
	primary int // the replica believed to be primary
	readRR  int // rotation cursor for follower reads
	sess    readpath.SessionState
	bo      *Backoff
	budget  *Budget
}

// New returns a client with the given unique id over t. The backoff seed
// derives from the id: deterministic under the simulator, decorrelated
// across clients.
func New(t Transport, id uint64) *Client {
	return &Client{
		ID:     id,
		t:      t,
		bo:     NewBackoff(minBackoff, maxBackoff, int64(id)*0x9e3779b9+0x7f4a7c15),
		budget: NewBudget(budgetRatio, budgetBurst),
	}
}

// kind is the shape of one call.
type kind uint8

const (
	write  kind = iota // Submit on the primary
	read               // QueryLevel, routed by level
	local              // Query, preferring one replica
	change             // Reconfig on the primary
)

// op is one call's request.
type op struct {
	kind  kind
	level readpath.Level // read
	pref  int            // local: the replica to try first
	body  []byte         // write, read, local
	ch    Change         // change
}

// Do submits one request, retrying across failovers until a response
// arrives, the default call deadline passes, or the attempt budget runs
// out.
func (c *Client) Do(body []byte) ([]byte, error) {
	return c.DoCtx(context.Background(), body)
}

// DoCtx is Do honoring ctx: its deadline (if any) replaces the default,
// and cancellation aborts the loop between attempts (an in-flight attempt
// still runs to completion — the outcome is then unknown).
func (c *Client) DoCtx(ctx context.Context, body []byte) ([]byte, error) {
	return c.call(ctx, op{kind: write, body: body}, 0)
}

// DoTimeout is Do with an explicit deadline.
func (c *Client) DoTimeout(body []byte, timeout time.Duration) ([]byte, error) {
	return c.call(context.Background(), op{kind: write, body: body}, timeout)
}

// QueryLevel runs a read at the given consistency level. Linearizable
// reads chase the primary exactly like writes (and are recorded, since
// they claim a linearization point); session and eventual reads rotate
// over the likely secondaries, falling back to the primary when the query
// is classified primary-only. Session reads carry and refresh the
// client's session token.
func (c *Client) QueryLevel(level readpath.Level, q []byte) ([]byte, error) {
	return c.QueryLevelCtx(context.Background(), level, q)
}

// QueryLevelCtx is QueryLevel honoring ctx like DoCtx.
func (c *Client) QueryLevelCtx(ctx context.Context, level readpath.Level, q []byte) ([]byte, error) {
	return c.call(ctx, op{kind: read, level: level, body: q}, 0)
}

// QueryLevelTimeout is QueryLevel with an explicit deadline.
func (c *Client) QueryLevelTimeout(level readpath.Level, q []byte, timeout time.Duration) ([]byte, error) {
	return c.call(context.Background(), op{kind: read, level: level, body: q}, timeout)
}

// Query runs a read-only query on local replica state, preferring
// replica i and moving on to the next when one is down or stopped.
func (c *Client) Query(i int, q []byte) ([]byte, error) {
	return c.call(context.Background(), op{kind: local, pref: i, body: q}, callTimeout)
}

// AddMember asks the group's primary to admit a new replica (it joins as
// a learner and is promoted once caught up). addr is its paxos address in
// a TCP deployment; empty for in-process transports.
func (c *Client) AddMember(id int, addr string) error {
	return c.reconfig(Change{Op: OpAdd, ID: id, Addr: addr})
}

// RemoveMember asks the group's primary to retire a replica.
func (c *Client) RemoveMember(id int) error {
	return c.reconfig(Change{Op: OpRemove, ID: id})
}

// ReplaceMember atomically swaps oldID out and admits newID in one
// committed membership change.
func (c *Client) ReplaceMember(oldID, newID int, addr string) error {
	return c.reconfig(Change{Op: OpReplace, ID: oldID, NewID: newID, Addr: addr})
}

func (c *Client) reconfig(ch Change) error {
	_, err := c.call(context.Background(), op{kind: change, ch: ch}, callTimeout)
	return err
}

// call runs one operation through the loop and settles it in the
// history: writes and linearizable reads are recorded. A zero timeout
// takes ctx's deadline, or the default.
func (c *Client) call(ctx context.Context, o op, timeout time.Duration) ([]byte, error) {
	if l, ok := c.t.(sync.Locker); ok {
		l.Lock()
		defer l.Unlock()
	}
	if timeout == 0 {
		timeout = Timeout(ctx)
	}
	if o.kind == read && !o.level.Valid() {
		return nil, fmt.Errorf("%w: invalid consistency level %d", ErrPermanent, uint8(o.level))
	}
	var seq uint64
	if o.kind == write {
		c.seq++
		seq = c.seq
	}
	record := c.Recorder != nil && (o.kind == write || o.kind == read && o.level == readpath.Linearizable)
	var id uint64
	if record {
		id = c.Recorder.Invoke(c.ID, o.body)
	}
	resp, unknown, err := c.loop(ctx, o, seq, timeout)
	if record {
		Finish(c.Recorder, id, resp, err, unknown)
	}
	return resp, err
}

// loop retries o until it succeeds, fails for good, or runs out of time,
// attempts or budget. unknown reports that some attempt may have executed
// (only writes ever set it: a failed read mutated nothing, so dropping it
// from the history cannot invalidate any other operation).
func (c *Client) loop(ctx context.Context, o op, seq uint64, timeout time.Duration) (resp []byte, unknown bool, err error) {
	t := c.t
	deadline := t.Now() + timeout
	limit := maxAttempts
	if o.kind == local {
		limit = 2 * t.Size()
	}
	// target is the believed primary. Writes and membership changes chase
	// it call-locally and remember it on success; reads keep c.primary in
	// step with it as they go.
	target := c.primary
	toPrimary := o.kind == write || o.kind == change || o.kind == read && o.level == readpath.Linearizable
	c.bo.Reset()
	// charge marks the next attempt as budget-consuming: a retry after a
	// shed re-offers load a server just refused for lack of capacity.
	// Everything else — a down replica, a not-primary redirect, a
	// crashed-mid-request ErrStopped — is fault churn, not overload, and
	// stays free: it is already bounded by the deadline, and charging it
	// would make an ordinary election drain the budget.
	charge := false
	var lastErr error
	for attempts := 0; t.Now() < deadline; attempts++ {
		if err := ctx.Err(); err != nil {
			// Canceled between attempts: an earlier attempt may still land.
			return nil, unknown, err
		}
		if attempts >= limit {
			return nil, unknown, fmt.Errorf("%w: gave up after %d attempts: %v", ErrTooManyAttempts, attempts, lastErr)
		}
		if charge && !c.budget.Allow() {
			// The group is failing faster than it is succeeding; more
			// retries would only amplify the overload.
			c.BudgetExhausted++
			return nil, unknown, fmt.Errorf("%w: after %d attempts", ErrBudgetExhausted, attempts)
		}
		charge = false
		n := t.Size()
		if n == 0 {
			return nil, unknown, ErrUnreachable
		}
		i := target % n
		switch {
		case o.kind == local:
			i = (o.pref + attempts) % n
		case !toPrimary:
			// Rotate away from the believed primary so follower-capable
			// reads land on secondaries and scale with the replica count.
			c.readRR++
			i = (target + 1 + c.readRR) % n
		}
		var tok readpath.Token
		switch o.kind {
		case write:
			resp, tok, err = t.Submit(i, c.ID, seq, o.body, deadline-t.Now())
		case read:
			if o.level == readpath.Session {
				tok = c.sess.Token()
			}
			resp, tok, err = t.QueryLevel(i, o.level, tok, o.body, deadline-t.Now())
		case local:
			resp, err = t.Query(i, o.body, deadline-t.Now())
		case change:
			err = t.Reconfig(i, o.ch, deadline-t.Now())
		}
		lastErr = err
		class := Classify(err)
		switch class {
		case classOK:
			if o.kind == write {
				c.budget.Success()
			}
			if o.kind == write || o.kind == read {
				c.sess.Observe(tok)
			}
			if toPrimary {
				c.primary = i
			}
			return resp, false, nil
		case classShed:
			// Shed before admission: provably never executed. Honor the
			// retry-after hint against the same target — overload is not
			// a routing problem — and make a write's retry spend budget.
			// A weak read may still find capacity on another secondary,
			// so reads keep rotating.
			charge = o.kind == write
			c.pause(ctx, overload.RetryAfter(err))
			continue
		case classNotPrimary:
			// A definite no-execute NACK, hint or not. A fresh hint is
			// authoritative; restart the backoff so the redirect is
			// followed promptly.
			var np core.ErrNotPrimary
			errors.As(err, &np)
			if np.Leader >= 0 {
				target = np.Leader
				c.bo.Reset()
			} else {
				target = i + 1
			}
			toPrimary = true
		case classPrimaryOnly:
			// Stop probing secondaries: the primary serves any level.
			toPrimary = true
		case classAgain:
			// Transient on this replica: it catches up, the primary
			// confirms its lease (or loses it and redirects), or the
			// earlier membership change commits.
		case classDown, classUnreachable, classUnknown:
			if class == classUnknown && o.kind != write {
				return nil, false, err
			}
			// The replica is down, or lost the request. A write's outcome
			// is unknown unless it provably never arrived. A request for
			// the primary moves on to the next replica instead of spinning
			// on a dead primary until the next election's winner is found;
			// weak reads rotate anyway.
			unknown = unknown || o.kind == write && class != classUnreachable
			if toPrimary {
				target = i + 1
			}
		case classStaleSeq:
			// No primary will ever accept this sequence number again. An
			// earlier admitted attempt is exactly what moved the dedup
			// table, so the outcome is unknown.
			return nil, true, fmt.Errorf("%w: %w", ErrPermanent, err)
		default: // classFinal
			// An expired deadline cannot be beaten by retrying; a
			// permanent failure cannot be fixed by it.
			return nil, unknown, err
		}
		if o.kind == read {
			c.primary = target % n
		}
		t.Sleep(ctx, c.bo.Next())
	}
	if lastErr == nil {
		lastErr = ErrUnreachable
	}
	// lastErr is quoted, not wrapped: a shed on the last attempt does not
	// make the whole call a definite did-not-execute NACK.
	return nil, unknown, fmt.Errorf("client: call timed out after %v: %v", timeout, lastErr)
}

// pause sleeps a server-provided retry-after hint, capped at maxPause.
func (c *Client) pause(ctx context.Context, ra time.Duration) {
	if ra <= 0 || ra > maxPause {
		ra = maxPause
	}
	c.t.Sleep(ctx, ra)
}
