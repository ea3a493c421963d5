package cluster_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/sim"
)

// TestReplacementDrill is the end-to-end node-replacement exercise: a
// 3-node cluster under client load loses a secondary, the operator swaps
// it for a fresh machine with ReplaceNode, the joiner catches up and is
// promoted — and then the old primary dies too, so the replacement must
// carry its weight in the next election (with the old primary gone, every
// quorum includes it). Afterwards all live replicas agree.
func TestReplacementDrill(t *testing.T) {
	e := sim.New(4)
	var failure string
	var failMu sync.Mutex
	fail := func(format string, args ...any) {
		failMu.Lock()
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
	}
	e.Run(func() {
		c := cluster.New(e, newLedger(), cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:         2,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				StatusEvery:     20 * time.Millisecond,
				CheckpointEvery: 200 * time.Millisecond,
				Seed:            31,
			},
		})
		if err := c.Start(); err != nil {
			fail("start: %v", err)
			return
		}
		p0, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			fail("%v", err)
			return
		}

		var done, sent atomic.Int64
		load := env.GoEach(e, "drill-client", 2, func(ci int) {
			cl := c.NewClient(uint64(70 + ci))
			for k := 0; done.Load() == 0; k++ {
				if _, err := cl.DoTimeout([]byte(fmt.Sprintf("c%d-n%d", ci, k)), 15*time.Second); err != nil {
					fail("client %d op %d: %v", ci, k, err)
					return
				}
				sent.Add(1)
				e.Sleep(3 * time.Millisecond)
			}
		})

		e.Sleep(200 * time.Millisecond)

		// A secondary dies; replace it with a fresh machine.
		sec := -1
		for i := 0; i < 3; i++ {
			if i != p0 {
				sec = i
				break
			}
		}
		c.Crash(sec)
		repl, err := c.ReplaceNode(sec)
		if err != nil {
			fail("replace %d: %v", sec, err)
			done.Store(1)
			load.Wait()
			return
		}
		if err := c.WaitVoter(repl, 30*time.Second); err != nil {
			fail("replacement %d not promoted: %v", repl, err)
			done.Store(1)
			load.Wait()
			return
		}
		if err := c.WaitRemoved(sec, 30*time.Second); err != nil {
			fail("old identity %d not removed: %v", sec, err)
			done.Store(1)
			load.Wait()
			return
		}

		// Now the primary dies. The survivors are one original voter and
		// the replacement: a quorum of the new membership exists only if
		// the replacement votes, so a successful election proves it does.
		e.Sleep(100 * time.Millisecond)
		c.Crash(p0)
		np, err := c.WaitPrimary(10 * time.Second)
		if err != nil {
			fail("no primary after crashing %d: %v", p0, err)
			done.Store(1)
			load.Wait()
			return
		}
		if np == p0 || np == sec {
			fail("dead replica %d elected primary", np)
		}
		e.Sleep(200 * time.Millisecond)

		// Bring the old primary back (it is still a member) and let the
		// cluster settle with all three members live.
		if err := c.Restart(p0); err != nil {
			fail("restart %d: %v", p0, err)
		}
		e.Sleep(200 * time.Millisecond)
		done.Store(1)
		load.Wait()
		failMu.Lock()
		failed := failure != ""
		failMu.Unlock()
		if failed {
			return
		}
		if sent.Load() == 0 {
			fail("no operations completed")
			return
		}

		states, faults, err := c.StableStates(30 * time.Second)
		if err != nil {
			fail("%v", err)
			return
		}
		for i, ferr := range faults {
			fail("replica %d faulted: %v", i, ferr)
			return
		}
		if len(states) != 3 {
			fail("%d live replicas after the drill, want 3", len(states))
			return
		}
		if _, ok := states[sec]; ok {
			fail("removed replica %d still reporting state", sec)
			return
		}
		if v := check.StateAgreement(states); len(v) != 0 {
			fail("%s", v[0])
			return
		}
		var logs []check.ChosenLog
		for i := 0; i < c.Size(); i++ {
			r := c.Replica(i)
			if r == nil || r.Role() == core.RoleRemoved {
				continue
			}
			base, vals := r.ChosenLog()
			logs = append(logs, check.ChosenLog{Replica: i, Base: base, Vals: vals})
		}
		if v := check.CheckPrefix(logs); len(v) != 0 {
			fail("%s", v[0])
			return
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestSelfRemovalRedirects pins the error contract for removing a node by
// asking that same node: a secondary must answer ErrNotPrimary (so clients
// redirect to the primary, where the removal is perfectly valid) — the
// "cannot remove self" guard belongs to the primary alone.
func TestSelfRemovalRedirects(t *testing.T) {
	e := sim.New(4)
	var failure string
	e.Run(func() {
		c := cluster.New(e, newLedger(), cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:         2,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				StatusEvery:     20 * time.Millisecond,
				Seed:            33,
			},
		})
		if err := c.Start(); err != nil {
			failure = fmt.Sprintf("start: %v", err)
			return
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			failure = err.Error()
			return
		}
		sec := (p + 1) % 3

		// A secondary asked to remove itself redirects instead of refusing.
		err = c.Replica(sec).RemoveMember(sec)
		var np core.ErrNotPrimary
		if !errors.As(err, &np) {
			failure = fmt.Sprintf("secondary self-removal: got %v, want ErrNotPrimary", err)
			return
		}
		err = c.Replica(sec).ReplaceMember(sec, 3, "n3")
		if !errors.As(err, &np) {
			failure = fmt.Sprintf("secondary self-replacement: got %v, want ErrNotPrimary", err)
			return
		}

		// The primary asked to remove itself is the real guard.
		err = c.Replica(p).RemoveMember(p)
		if err == nil || !strings.Contains(err.Error(), "cannot remove self") {
			failure = fmt.Sprintf("primary self-removal: got %v, want cannot-remove-self", err)
			return
		}

		// And the valid form still works: the primary removes the secondary.
		if err := c.Replica(p).RemoveMember(sec); err != nil {
			failure = fmt.Sprintf("primary removing %d: %v", sec, err)
			return
		}
		if err := c.WaitRemoved(sec, 30*time.Second); err != nil {
			failure = fmt.Sprintf("secondary %d not removed: %v", sec, err)
			return
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestRemovedIdentityRefused restarts a replaced node from its stale WAL:
// the old identity still believes it is a voter, but the cluster must
// refuse it — epoch nacks teach it the membership that replaced it, it
// parks in RoleRemoved, and service continues without it.
func TestRemovedIdentityRefused(t *testing.T) {
	e := sim.New(4)
	var failure string
	e.Run(func() {
		c := cluster.New(e, newLedger(), cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:         2,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				StatusEvery:     20 * time.Millisecond,
				Seed:            32,
			},
		})
		if err := c.Start(); err != nil {
			failure = fmt.Sprintf("start: %v", err)
			return
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			failure = err.Error()
			return
		}
		cl := c.NewClient(80)
		for k := 0; k < 20; k++ {
			if _, err := cl.DoTimeout([]byte(fmt.Sprintf("pre-%d", k)), 10*time.Second); err != nil {
				failure = fmt.Sprintf("op %d: %v", k, err)
				return
			}
		}

		sec := -1
		for i := 0; i < 3; i++ {
			if i != p {
				sec = i
				break
			}
		}
		c.Crash(sec)
		repl, err := c.ReplaceNode(sec)
		if err != nil {
			failure = fmt.Sprintf("replace %d: %v", sec, err)
			return
		}
		if err := c.WaitVoter(repl, 30*time.Second); err != nil {
			failure = fmt.Sprintf("replacement %d not promoted: %v", repl, err)
			return
		}
		if err := c.WaitRemoved(sec, 30*time.Second); err != nil {
			failure = fmt.Sprintf("old identity %d not removed: %v", sec, err)
			return
		}

		// The decommissioned machine comes back with its old disk. Its WAL
		// predates the replacement, so it rejoins as a voter of a dead
		// epoch — and must be refused and told why.
		if err := c.Restart(sec); err != nil {
			failure = fmt.Sprintf("restart %d: %v", sec, err)
			return
		}
		deadline := e.Now() + 30*time.Second
		for e.Now() < deadline {
			if r := c.Replica(sec); r != nil && r.Role() == core.RoleRemoved {
				break
			}
			e.Sleep(10 * time.Millisecond)
		}
		r := c.Replica(sec)
		if r == nil || r.Role() != core.RoleRemoved {
			failure = fmt.Sprintf("restarted old identity %d was not refused", sec)
			return
		}

		// Service must be unaffected: writes still commit and the refused
		// node never leads.
		for k := 0; k < 10; k++ {
			if _, err := cl.DoTimeout([]byte(fmt.Sprintf("post-%d", k)), 10*time.Second); err != nil {
				failure = fmt.Sprintf("post-refusal op %d: %v", k, err)
				return
			}
		}
		if c.Primary() == sec {
			failure = fmt.Sprintf("removed replica %d is primary", sec)
			return
		}
		if _, err := c.WaitConverged(30 * time.Second); err != nil {
			failure = err.Error()
			return
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}
