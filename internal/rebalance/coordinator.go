package rebalance

import (
	"errors"
	"fmt"
	"time"

	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/readpath"
	"rex/internal/shard"
)

// Clock abstracts time for the coordinator; env.Env satisfies it, so the
// coordinator paces warm rounds in virtual time inside the simulation
// and in real time against a TCP deployment.
type Clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

// ErrProposeConflict reports that another coordinator won the map CAS.
var ErrProposeConflict = errors.New("rebalance: map version conflict (another change in flight)")

// Coordinator drives split, merge, and move operations. It owns no
// replicated state: every step is an idempotent control op submitted
// through the target group's consensus sequence, so a re-run after any
// coordinator or replica failure converges. One coordinator should run
// at a time; concurrent coordinators are safe (the map CAS serializes
// them) but the loser's operation fails with ErrProposeConflict.
type Coordinator struct {
	// Groups submits control ops; use dedicated clients (not the router's)
	// so coordinator traffic never shares a client's sequence space with
	// application requests.
	Groups []shard.GroupClient
	// Home is the map home group's index (conventionally 0).
	Home int
	// WarmRounds bounds pre-freeze warm copy rounds (default 3); the
	// loop exits early when the shipped delta stops shrinking — the
	// catch-up lag bound.
	WarmRounds int
	Clock      Clock
	Metrics    *obs.Registry
	Logf       func(format string, args ...any)
}

func (c *Coordinator) clock() Clock {
	if c.Clock == nil {
		c.Clock = env.NewReal()
	}
	return c.Clock
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Coordinator) warmRounds() int {
	if c.WarmRounds > 0 {
		return c.WarmRounds
	}
	return 3
}

func (c *Coordinator) metric() *obs.Registry {
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c.Metrics
}

// ctrl submits a control op to group g and unwraps the reply.
func (c *Coordinator) ctrl(g int, op []byte) ([]byte, error) {
	resp, err := c.Groups[g].Do(op)
	return unwrapCtrl(g, "control op", resp, err)
}

// ctrlQuery runs a linearizable control query against group g. The
// linearizable level matters for exports: the read drains every pending
// write in the group before running, so a post-freeze export observes
// all writes admitted before the barrier.
func (c *Coordinator) ctrlQuery(g int, q []byte) ([]byte, error) {
	resp, err := c.Groups[g].QueryLevel(readpath.Linearizable, q)
	return unwrapCtrl(g, "control query", resp, err)
}

// unwrapCtrl returns the payload of group g's reply to a control request.
func unwrapCtrl(g int, what string, resp []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	st, payload, err := shard.DecodeReply(resp)
	if err != nil {
		return nil, err
	}
	if st != shard.ReplyOK {
		if st == shard.ReplyErr {
			return nil, fmt.Errorf("%w: group %d: %s", shard.ErrRebalance, g, shard.ReplyErrMessage(payload))
		}
		return nil, fmt.Errorf("rebalance: group %d %s nacked (%d)", g, what, st)
	}
	return payload, nil
}

// FetchMap reads the current map from the map home.
func (c *Coordinator) FetchMap() (*shard.ShardMap, bool, error) {
	payload, err := c.ctrlQuery(c.Home, GetMapQuery())
	if err != nil {
		return nil, false, err
	}
	return DecodeGetMapReply(payload)
}

// Status reads group g's migration state.
func (c *Coordinator) Status(g int) (*GroupStatus, error) {
	payload, err := c.ctrlQuery(g, StatusQuery())
	if err != nil {
		return nil, err
	}
	return DecodeGroupStatus(payload)
}

// propose CAS-installs nm at the map home.
func (c *Coordinator) propose(nm *shard.ShardMap) error {
	payload, err := c.ctrl(c.Home, ProposeMapOp(nm))
	if err != nil {
		return err
	}
	accepted, cur, err := DecodeProposeReply(payload)
	if err != nil {
		return err
	}
	if !accepted {
		return fmt.Errorf("%w: proposed v%d, home has v%d", ErrProposeConflict, nm.Version, cur.Version)
	}
	return nil
}

// Split splits the range containing hash `at` at `at`. Pure metadata:
// two map ops, no data movement, no fencing blip.
func (c *Coordinator) Split(at uint64) (*shard.ShardMap, error) {
	m, _, err := c.FetchMap()
	if err != nil {
		return nil, err
	}
	nm, err := m.WithSplit(at)
	if err != nil {
		return nil, err
	}
	if err := c.propose(nm); err != nil {
		return nil, err
	}
	if _, err := c.ctrl(c.Home, FinalizeMapOp(nm.Version)); err != nil {
		return nil, err
	}
	c.metric().CounterOf("rex_rebalance_total").Inc()
	c.metric().CounterOf("rex_rebalance_split_total").Inc()
	c.logf("rebalance: split at %#x -> map v%d", at, nm.Version)
	return nm, nil
}

// Merge fuses the range starting exactly at `boundary` into its left
// neighbor (same owner required). The owner's replicated ownership state
// is fused at the same version, so the merged range's epoch fence holds.
func (c *Coordinator) Merge(boundary uint64) (*shard.ShardMap, error) {
	m, _, err := c.FetchMap()
	if err != nil {
		return nil, err
	}
	nm, err := m.WithMerge(boundary)
	if err != nil {
		return nil, err
	}
	i := nm.RangeIndexFor(boundary)
	lo, hi := nm.RangeBounds(i)
	owner := nm.Ranges[i].Group
	if err := c.propose(nm); err != nil {
		return nil, err
	}
	if _, err := c.ctrl(owner, MergeOwnedOp(lo, hi, nm.Version)); err != nil {
		return nil, err
	}
	if _, err := c.ctrl(c.Home, FinalizeMapOp(nm.Version)); err != nil {
		return nil, err
	}
	c.metric().CounterOf("rex_rebalance_total").Inc()
	c.metric().CounterOf("rex_rebalance_merge_total").Inc()
	c.logf("rebalance: merge at %#x -> map v%d", boundary, nm.Version)
	return nm, nil
}

// Move migrates the range containing hash `at` to group dest:
//
//	propose map v+1 (range -> dest, epoch v+1)   — routers start fencing
//	warm-copy rounds until the delta stops shrinking (catch-up bound)
//	freeze [lo,hi] at source                      — write barrier up
//	linearizable export (drains admitted writes)  — the final delta
//	stage at dest, release at source, adopt at dest — ownership flip
//	finalize v+1
//
// Release commits strictly before adopt is submitted, so at most one
// group owns the span at any trace position — the window between them is
// the bounded unavailability the freeze histogram measures.
func (c *Coordinator) Move(at uint64, dest int) (*shard.ShardMap, error) {
	reg := c.metric()
	active := reg.GaugeOf("rex_rebalance_active")
	active.Add(1)
	defer active.Add(-1)

	m, _, err := c.FetchMap()
	if err != nil {
		return nil, err
	}
	nm, err := m.WithMove(at, dest)
	if err != nil {
		return nil, err
	}
	i := nm.RangeIndexFor(at)
	lo, hi := nm.RangeBounds(i)
	src := m.Ranges[i].Group
	if err := c.propose(nm); err != nil {
		return nil, err
	}
	ver := nm.Version

	// Warm copy: ship snapshots of the live range so the post-freeze
	// delta is small. Each round's blob is a full replacement for the
	// span, so stale rounds cannot resurrect deleted keys — adopt
	// applies only the final, post-freeze blob.
	var lastSize = -1
	for round := 0; round < c.warmRounds(); round++ {
		blob, err := c.ctrlQuery(src, ExportQuery(lo, hi))
		if err != nil {
			return nil, fmt.Errorf("rebalance: warm export round %d: %w", round, err)
		}
		if _, err := c.ctrl(dest, ImportStageOp(lo, hi, ver, blob)); err != nil {
			return nil, fmt.Errorf("rebalance: warm import round %d: %w", round, err)
		}
		c.logf("rebalance: move %#x warm round %d: %d bytes", at, round, len(blob))
		if lastSize >= 0 && len(blob) >= lastSize {
			break // lag bound met: the delta stopped shrinking
		}
		lastSize = len(blob)
	}

	t0 := c.clock().Now()
	if _, err := c.ctrl(src, FreezeOp(lo, hi, ver)); err != nil {
		return nil, fmt.Errorf("rebalance: freeze: %w", err)
	}
	blob, err := c.ctrlQuery(src, ExportQuery(lo, hi))
	if err != nil {
		return nil, fmt.Errorf("rebalance: final export: %w", err)
	}
	if _, err := c.ctrl(dest, ImportStageOp(lo, hi, ver, blob)); err != nil {
		return nil, fmt.Errorf("rebalance: final import: %w", err)
	}
	if _, err := c.ctrl(src, ReleaseOp(lo, hi, ver)); err != nil {
		return nil, fmt.Errorf("rebalance: release: %w", err)
	}
	if _, err := c.ctrl(dest, AdoptOp(lo, hi, ver)); err != nil {
		return nil, fmt.Errorf("rebalance: adopt: %w", err)
	}
	reg.HistogramOf("rex_rebalance_freeze_seconds").Observe(c.clock().Now() - t0)
	if _, err := c.ctrl(c.Home, FinalizeMapOp(ver)); err != nil {
		return nil, err
	}
	reg.CounterOf("rex_rebalance_total").Inc()
	reg.CounterOf("rex_rebalance_move_total").Inc()
	reg.CounterOf("rex_rebalance_moved_bytes").Add(uint64(len(blob)))
	c.logf("rebalance: move %#x -> group %d done: map v%d, %d bytes final delta", at, dest, ver, len(blob))
	return nm, nil
}
