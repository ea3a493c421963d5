package shard

import (
	"errors"
	"fmt"
	"time"

	"rex/internal/client"
	"rex/internal/overload"
	"rex/internal/readpath"
)

// GroupClient submits to one replica group. Both cluster.Client
// (in-process) and server.Client (TCP) satisfy it: each follows its own
// group's `not primary` hints independently, so a failover in one group
// never stalls routing to the others. Each group client keeps its own
// session token, so session reads stay read-your-writes per group without
// ever comparing cut frontiers across groups (they live in different
// trace spaces).
type GroupClient interface {
	// Do submits one replicated request to the group and returns the
	// application response.
	Do(body []byte) ([]byte, error)
	// Query runs a read-only query preferring the group's replica i
	// (served by a replica's local hybrid read pool, outside the
	// replication protocol), failing over on transient errors.
	Query(i int, q []byte) ([]byte, error)
	// QueryLevel runs a read at the given consistency level, routing to
	// the primary or a caught-up secondary as the level demands.
	QueryLevel(level readpath.Level, q []byte) ([]byte, error)
}

// ErrMapRetriesExhausted reports that a request kept landing on
// non-owners (or frozen ranges) for the router's whole attempt budget —
// the map could not be brought up to date in time.
var ErrMapRetriesExhausted = errors.New("shard: map retries exhausted")

// ErrRebalance reports a permanent rebalance-layer NACK (ReplyErr).
var ErrRebalance = errors.New("shard: rebalance error")

// Router routes requests to groups by an application-supplied key. It is
// single-task like its GroupClients (a router per routing task avoids
// head-of-line blocking between tasks).
//
// With Enveloped unset the router trusts Map forever and forwards raw
// bodies. With Enveloped set it speaks the rebalance envelope: each
// request carries the routed range's epoch, and a wrong-group / stale /
// frozen NACK triggers a bounded map refetch with jittered backoff
// instead of retrying the same group blindly.
type Router struct {
	Map    *ShardMap
	Groups []GroupClient // one per group, indexed by group id

	// Enveloped turns on the rebalance envelope protocol.
	Enveloped bool
	// Fetch returns the current map (a linearizable read of the map home
	// group). Nil disables refetch; NACKs then only burn attempts.
	Fetch func() (*ShardMap, error)
	// Sleep drives the backoff; NewRouter sets real time, which MUST be
	// replaced (env.Env's Sleep) inside the simulation.
	Sleep func(time.Duration)
	// Recorder, when set, records Do and linearizable QueryLevel calls
	// with raw application bytes, before enveloping, so one global history
	// spans groups and the linearizability checker sees a key's operations
	// across an ownership move. ClientID labels the history's client
	// column.
	Recorder client.Recorder
	ClientID uint64
	// BudgetExhausted counts calls abandoned on a dry retry budget.
	BudgetExhausted uint64

	bo     *client.Backoff
	budget *client.Budget
}

// routeAttempts bounds NACK-driven rerouting per call.
const routeAttempts = 32

// Router retry budget: every envelope NACK consumed real replication
// work (the request went through consensus before being refused), so
// NACK-driven retries spend tokens. Successes earn a full token and the
// bucket is deep — rebalance freezes are short and bursty; only a
// sustained NACK storm with no goodput drains it.
const (
	routeBudgetRatio = 1.0
	routeBudgetBurst = 128
)

// NewRouter binds a map to its per-group clients.
func NewRouter(m *ShardMap, groups []GroupClient) (*Router, error) {
	if len(groups) != m.Groups() {
		return nil, fmt.Errorf("shard: router has %d group clients for %d groups", len(groups), m.Groups())
	}
	return &Router{Map: m, Groups: groups, Sleep: time.Sleep}, nil
}

// GroupFor exposes the key hash for callers that track per-group state.
func (r *Router) GroupFor(key []byte) int { return r.Map.GroupFor(key) }

const (
	minRouteBackoff = 500 * time.Microsecond
	maxRouteBackoff = 20 * time.Millisecond
)

// backoff sleeps one jittered exponential step of the router's schedule,
// seeded from the client id; each routed call resets it.
func (r *Router) backoff() { r.Sleep(r.bo.Next()) }

// refetch replaces the map if a newer version can be fetched. It is
// called only on evidence of staleness (a NACK carrying a version above
// ours, or a permanent transport error), so the backoff loop around it
// bounds the fetch rate.
func (r *Router) refetch() {
	if r.Fetch == nil {
		return
	}
	nm, err := r.Fetch()
	if err != nil || nm == nil {
		return
	}
	if nm.Version > r.Map.Version && nm.Groups() == len(r.Groups) {
		r.Map = nm
	}
}

// route returns the target group and envelope for a key hash.
func (r *Router) route(h uint64, body []byte) (int, []byte) {
	if len(r.Map.Ranges) == 0 {
		return int(h % uint64(len(r.Groups))), Envelope(EnvApp, r.Map.Version, h, body)
	}
	rg := r.Map.Ranges[r.Map.RangeIndexFor(h)]
	return rg.Group, Envelope(EnvApp, rg.Epoch, h, body)
}

// Do submits body to the group owning key.
func (r *Router) Do(key, body []byte) ([]byte, error) {
	if !r.Enveloped {
		return r.Groups[r.Map.GroupFor(key)].Do(body)
	}
	return r.call(key, routeDo, 0, 0, body)
}

// Query runs a read-only query for key against replica i of the owning
// group (read fan-out: any replica's local hybrid pool can serve it).
func (r *Router) Query(key []byte, i int, q []byte) ([]byte, error) {
	if !r.Enveloped {
		return r.Groups[r.Map.GroupFor(key)].Query(i, q)
	}
	return r.call(key, routeQuery, 0, i, q)
}

// QueryLevel runs a read for key at the given consistency level against
// the owning group: linearizable reads go to that group's primary,
// session/eventual reads fan out over its secondaries with the group
// client's own session token. Linearizable reads are recorded (they must
// be, to constrain the history); weaker reads are checked by the session
// checker instead.
func (r *Router) QueryLevel(key []byte, level readpath.Level, q []byte) ([]byte, error) {
	if !r.Enveloped {
		return r.Groups[r.Map.GroupFor(key)].QueryLevel(level, q)
	}
	return r.call(key, routeRead, level, 0, q)
}

// routeKind is the GroupClient method a routed call uses.
type routeKind uint8

const (
	routeDo routeKind = iota
	routeQuery
	routeRead
)

// call routes one enveloped operation and settles it in the history. A
// failed read is always discarded: it mutated nothing and the caller
// never saw a response.
func (r *Router) call(key []byte, k routeKind, level readpath.Level, i int, body []byte) ([]byte, error) {
	record := r.Recorder != nil && (k == routeDo || k == routeRead && level == readpath.Linearizable)
	var id uint64
	if record {
		id = r.Recorder.Invoke(r.ClientID, body)
	}
	resp, unknown, err := r.routed(HashKey(key), k, level, i, body)
	if record {
		client.Finish(r.Recorder, id, resp, err, unknown && k == routeDo)
	}
	return resp, err
}

// routed runs the enveloped reroute loop. It retries only after
// deterministic rebalance NACKs (which provably did not mutate state) or
// permanent transport errors on a stale route; an unknown-outcome
// transport error is surfaced to the caller rather than blindly
// resubmitted, since a resubmission would be a second, distinct request.
// unknown reports that some attempt may have mutated state.
func (r *Router) routed(h uint64, k routeKind, level readpath.Level, i int, body []byte) (resp []byte, unknown bool, err error) {
	if r.bo == nil {
		r.bo = client.NewBackoff(minRouteBackoff, maxRouteBackoff, int64(r.ClientID)*2654435761+0x5bd1e995)
		r.budget = client.NewBudget(routeBudgetRatio, routeBudgetBurst)
	}
	r.bo.Reset()
	for attempt := 0; attempt < routeAttempts; attempt++ {
		if attempt > 0 && !r.budget.Allow() {
			// Every retry here follows a NACK that consumed replication
			// work; a dry budget means this router is amplifying load on
			// a cluster that is refusing it.
			r.BudgetExhausted++
			return nil, unknown, client.ErrBudgetExhausted
		}
		g, env := r.route(h, body)
		var out []byte
		switch k {
		case routeDo:
			out, err = r.Groups[g].Do(env)
		case routeQuery:
			out, err = r.Groups[g].Query(i, env)
		default:
			out, err = r.Groups[g].QueryLevel(level, env)
		}
		if err != nil {
			if errors.Is(err, client.ErrPermanent) {
				// A permanent error on this route (e.g. a stale-sequence
				// wrap) may mean an earlier attempt landed: refetch and
				// reroute, outcome unknown.
				unknown = true
				r.refetch()
				r.backoff()
				continue
			}
			if errors.Is(err, overload.ErrOverloaded) || errors.Is(err, overload.ErrDeadlineExceeded) {
				// Shed before admission, after the group client's own
				// paced retries: provably never executed. Surface it — the
				// caller owns the load decision now.
				return nil, unknown, err
			}
			return nil, true, err
		}
		done, payload, rerr := r.handleReply(out, attempt)
		if done {
			if rerr != nil {
				return nil, true, rerr
			}
			r.budget.Success()
			return payload, false, nil
		}
	}
	return nil, unknown, ErrMapRetriesExhausted
}

// handleReply interprets an envelope reply. done=false means "NACKed,
// rerouted, try again".
func (r *Router) handleReply(resp []byte, attempt int) (done bool, payload []byte, err error) {
	st, payload, err := DecodeReply(resp)
	if err != nil {
		return true, nil, err
	}
	switch st {
	case ReplyOK:
		return true, payload, nil
	case ReplyWrongGroup, ReplyStale:
		if ReplyVersion(payload) > r.Map.Version {
			r.refetch()
		} else if attempt > 2 {
			// Same-version NACKs that persist mean our map is stale but
			// the responder's is too (mid-flip); fetch the authoritative
			// one.
			r.refetch()
		}
		r.backoff()
		return false, nil, nil
	case ReplyFrozen:
		// Bounded migration write barrier; wait it out, occasionally
		// confirming the flip landed.
		if attempt > 1 {
			r.refetch()
		}
		r.backoff()
		return false, nil, nil
	case ReplyErr:
		return true, nil, fmt.Errorf("%w: %s", ErrRebalance, ReplyErrMessage(payload))
	default:
		return true, nil, fmt.Errorf("shard: unknown reply status %d", st)
	}
}
