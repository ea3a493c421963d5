package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/readpath"
	"rex/internal/sim"
)

// conflictSchedule pre-generates a deterministic request schedule from a
// seed: per-client private keys (pairwise-disjoint conflict classes, so
// their slice-lock events elide), a shared read-only key pool
// (overlapping classes exercised through concurrent readers), and
// whole-table sweeps (catch-all class, dispatched under the admission
// barrier). Writes stay single-writer-per-key so the final database
// contents are schedule-independent and can be compared byte for byte
// across runs with different tracing modes.
func conflictSchedule(seed int64, clients, opsPer int) [][][]byte {
	rng := rand.New(rand.NewSource(seed))
	scheds := make([][][]byte, clients)
	for ci := 0; ci < clients; ci++ {
		for op := 0; op < opsPer; op++ {
			var body []byte
			switch r := rng.Intn(100); {
			case r < 45:
				body = hashdb.SetReq(fmt.Sprintf("p%d-%d", ci, rng.Intn(6)),
					[]byte(fmt.Sprintf("c%d-n%d", ci, op)))
			case r < 55:
				body = hashdb.DelReq(fmt.Sprintf("p%d-%d", ci, rng.Intn(6)))
			case r < 90:
				body = hashdb.GetReq(fmt.Sprintf("shared-%d", rng.Intn(4)))
			default:
				body = hashdb.SweepReq()
			}
			scheds[ci] = append(scheds[ci], body)
		}
	}
	return scheds
}

// runConflictWorkload drives one 3-replica hashdb cluster through the
// schedule and returns the converged application state plus the number
// of lock ops the primary elided. The auto-sync period is pushed past
// the test horizon so the replicated state depends only on the request
// set, not on timer interleavings — which is what makes elided and
// fully-traced runs byte-comparable.
func runConflictWorkload(t *testing.T, scheds [][][]byte, disableElision bool) (string, uint64) {
	t.Helper()
	var state string
	var elided uint64
	e := sim.New(8)
	e.Run(func() {
		factory := hashdb.New(hashdb.Options{
			Slices:    64,
			SyncEvery: time.Hour, // never fires inside the test horizon
			SyncCost:  50 * time.Microsecond,
			SetCost:   20 * time.Microsecond,
			GetCost:   15 * time.Microsecond,
		})
		c := cluster.New(e, factory, cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:                4,
				Timers:                 hashdb.Timers(),
				HeartbeatEvery:         20 * time.Millisecond,
				ElectionTimeout:        100 * time.Millisecond,
				StatusEvery:            20 * time.Millisecond,
				Seed:                   11,
				DisableConflictElision: disableElision,
			},
		})
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		g := env.NewGroup(e)
		for ci := range scheds {
			ci := ci
			g.Add(1)
			e.Go(fmt.Sprintf("conflict-client-%d", ci), func() {
				defer g.Done()
				cl := c.NewClient(uint64(100 + ci))
				for _, body := range scheds[ci] {
					if _, err := cl.Do(body); err != nil {
						t.Errorf("client %d: %v", ci, err)
						return
					}
				}
			})
		}
		g.Wait()
		elided = c.Replica(p).Stats().ElidedOps

		// Replay determinism through a restart: a secondary rebuilt from
		// its own log must replay the (possibly elided) trace back to the
		// same bytes.
		sec := (p + 1) % c.Size()
		c.Crash(sec)
		if err := c.Restart(sec); err != nil {
			t.Fatalf("restart secondary: %v", err)
		}
		state = waitConverged(t, e, c, 30*time.Second)
		c.Stop()
	})
	return state, elided
}

// TestConflictElisionStateEquivalence is the elision property test:
// across random schedules of disjoint-class writes, overlapping-class
// reads, and catch-all sweeps, a cluster tracing with conflict-class
// elision must converge — including through a secondary crash/restart —
// to the exact bytes a fully-traced cluster produces, while actually
// eliding a nonzero number of lock events.
func TestConflictElisionStateEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			scheds := conflictSchedule(seed, 4, 60)
			elidedState, elidedOps := runConflictWorkload(t, scheds, false)
			fullState, fullOps := runConflictWorkload(t, scheds, true)
			if elidedOps == 0 {
				t.Fatal("elision enabled but no lock op was elided")
			}
			if fullOps != 0 {
				t.Fatalf("elision disabled but %d ops were elided", fullOps)
			}
			if elidedState != fullState {
				t.Fatalf("elided and fully-traced runs diverged:\nelided: %d bytes\nfull:   %d bytes",
					len(elidedState), len(fullState))
			}
		})
	}
}

// TestSessionReadTokenAcrossRebuild is the cut-normalization regression
// test (Replayer.WaitExecutedAtLeast / readpath.Token.Covers): a session
// token minted before a resync or rebuild can carry a cut sized for a
// different thread count. Trailing zeros must be treated as "nothing to
// wait for" — the read is served — while a non-zero entry for a thread
// the trace does not have must fail fast instead of stalling out the
// full wait budget.
func TestSessionReadTokenAcrossRebuild(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		opts := defaultOpts()
		opts.Template.ReadWaitTimeout = 300 * time.Millisecond
		c := cluster.New(e, newTKV, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, tok, err := c.Replica(p).SubmitToken(7, 1, []byte("put reb mine"))
		if err != nil {
			t.Fatal(err)
		}

		// Rebuild a secondary from its durable state, then read through it
		// with a token whose cut is padded past the worker count — the
		// shape a pre-rebuild token has when thread counts change.
		sec := (p + 1) % c.Size()
		c.Crash(sec)
		if err := c.Restart(sec); err != nil {
			t.Fatal(err)
		}
		padded := tok
		padded.Cut = append(tok.Cut.Clone(), 0, 0, 0)
		resp, tok2, err := c.Replica(sec).QueryLevel(readpath.Session, padded, []byte("get reb"))
		if err != nil || string(resp) != "mine" {
			t.Fatalf("session read with padded token = %q, %v", resp, err)
		}
		if !tok2.Covers(tok) {
			t.Fatalf("refreshed token %+v does not cover the original %+v", tok2, tok)
		}

		// A genuinely uncoverable token — non-zero progress on a thread
		// this trace does not have — must fail fast, not stall.
		impossible := tok
		impossible.Cut = append(tok.Cut.Clone(), 0, 0, 7)
		t0 := e.Now()
		_, _, err = c.Replica(sec).QueryLevel(readpath.Session, impossible, []byte("get reb"))
		waited := e.Now() - t0
		if !errors.Is(err, readpath.ErrFrontierWait) {
			t.Fatalf("impossible token: got %v, want ErrFrontierWait", err)
		}
		if waited >= opts.Template.ReadWaitTimeout {
			t.Fatalf("impossible token stalled %v (budget %v); want fail-fast", waited, opts.Template.ReadWaitTimeout)
		}
		c.Stop()
	})
}

// TestLinearizableReadWaitBound is the shared-deadline regression test:
// a linearizable read whose lease has lapsed AND whose consensus barrier
// cannot confirm (the primary is isolated, with a write still pending)
// must give up within ONE ReadWaitTimeout — the drain and barrier legs
// share a single deadline rather than each getting their own budget.
func TestLinearizableReadWaitBound(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		opts := defaultOpts()
		opts.Template.ReadWaitTimeout = 300 * time.Millisecond
		c := cluster.New(e, newTKV, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		if _, err := cl.Do([]byte("put bound v")); err != nil {
			t.Fatal(err)
		}

		// Cut the primary off and let its lease lapse (default lease is
		// 4×HeartbeatEvery = 80ms); a write submitted behind the partition
		// stays pending so the drain leg has something to wait on too.
		c.Net.Isolate(p, true)
		e.Go("stuck-writer", func() {
			_, _, _ = c.Replica(p).SubmitToken(9, 1, []byte("put bound v2"))
		})
		e.Sleep(150 * time.Millisecond)

		t0 := e.Now()
		_, _, err = c.Replica(p).QueryLevel(readpath.Linearizable, readpath.Token{}, []byte("get bound"))
		waited := e.Now() - t0
		if err == nil {
			t.Fatal("isolated primary served a linearizable read")
		}
		if waited > opts.Template.ReadWaitTimeout+100*time.Millisecond {
			t.Fatalf("linearizable read waited %v, want <= one ReadWaitTimeout (%v) plus grace",
				waited, opts.Template.ReadWaitTimeout)
		}
		c.Net.Isolate(p, false)
		c.Stop()
	})
}
