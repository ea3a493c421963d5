package core_test

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/readpath"
	"rex/internal/sched"
	"rex/internal/sim"
)

// unclassifiedSM wraps tkv but hides its ClassifyQuery, modeling a state
// machine that never opted into the read/write classification hook.
type unclassifiedSM struct{ kv *tkv }

func (u *unclassifiedSM) Apply(ctx *core.Ctx, req []byte) []byte { return u.kv.Apply(ctx, req) }
func (u *unclassifiedSM) Query(ctx *core.Ctx, q []byte) []byte   { return u.kv.Query(ctx, q) }
func (u *unclassifiedSM) WriteCheckpoint(w io.Writer) error      { return u.kv.WriteCheckpoint(w) }
func (u *unclassifiedSM) ReadCheckpoint(r io.Reader) error       { return u.kv.ReadCheckpoint(r) }

func TestLinearizableReadSeesOwnWrite(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		for i := 0; i < 5; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put lin%d v%d", i, i))); err != nil {
				t.Fatal(err)
			}
			resp, err := cl.QueryLevel(readpath.Linearizable, []byte(fmt.Sprintf("get lin%d", i)))
			if err != nil || string(resp) != fmt.Sprintf("v%d", i) {
				t.Fatalf("linearizable read %d = %q, %v", i, resp, err)
			}
		}
		// Linearizable reads are primary-only: a secondary bounces them
		// with a leader hint rather than serving possibly-stale state.
		sec := (p + 1) % c.Size()
		_, _, err = c.Replica(sec).QueryLevel(readpath.Linearizable, readpath.Token{}, []byte("get lin0"))
		var np core.ErrNotPrimary
		if !errors.As(err, &np) {
			t.Fatalf("secondary linearizable read: got %v, want ErrNotPrimary", err)
		}
		c.Stop()
	})
}

// TestLinearizableReadBarrierPath disables the quorum lease so every
// linearizable read must confirm leadership through a consensus barrier.
func TestLinearizableReadBarrierPath(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		opts := defaultOpts()
		opts.Template.LeaseDuration = -1 // force the barrier leg
		c := cluster.New(e, newTKV, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		if _, err := cl.Do([]byte("put bar yes")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			resp, err := cl.QueryLevel(readpath.Linearizable, []byte("get bar"))
			if err != nil || string(resp) != "yes" {
				t.Fatalf("barrier-confirmed read = %q, %v", resp, err)
			}
		}
		c.Stop()
	})
}

func TestSessionReadYourWritesOnSecondary(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Write directly on the primary to capture the session token its
		// commit frontier produces.
		_, tok, err := c.Replica(p).SubmitToken(7, 1, []byte("put sess mine"))
		if err != nil {
			t.Fatal(err)
		}
		if tok.Zero() {
			t.Fatal("write returned a zero session token")
		}
		// A secondary must hold the session read until its replayed
		// frontier covers the token, then serve the written value.
		sec := (p + 1) % c.Size()
		resp, tok2, err := c.Replica(sec).QueryLevel(readpath.Session, tok, []byte("get sess"))
		if err != nil || string(resp) != "mine" {
			t.Fatalf("session read on secondary = %q, %v", resp, err)
		}
		if !tok2.Covers(tok) {
			t.Fatalf("refreshed token %+v does not cover the write token %+v", tok2, tok)
		}
		// The client wrapper does the same dance end to end.
		cl := c.NewClient(1)
		if _, err := cl.Do([]byte("put sess2 also")); err != nil {
			t.Fatal(err)
		}
		resp, err = cl.QueryLevel(readpath.Session, []byte("get sess2"))
		if err != nil || string(resp) != "also" {
			t.Fatalf("client session read = %q, %v", resp, err)
		}
		c.Stop()
	})
}

// TestFollowerReadLeavesStateUntouched is the classification regression
// test: serving reads from a secondary must not change its replicated
// state by a single byte (a query with side effects would fork it from
// the committed trace).
func TestFollowerReadLeavesStateUntouched(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		for i := 0; i < 8; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put fr%d v%d", i, i))); err != nil {
				t.Fatal(err)
			}
		}
		waitConverged(t, e, c, 20*time.Second)
		sec := (p + 1) % c.Size()
		before := stateOf(t, c.Replica(sec))
		for i := 0; i < 8; i++ {
			q := []byte(fmt.Sprintf("get fr%d", i))
			resp, _, err := c.Replica(sec).QueryLevel(readpath.Eventual, readpath.Token{}, q)
			if err != nil || string(resp) != fmt.Sprintf("v%d", i) {
				t.Fatalf("eventual read %d = %q, %v", i, resp, err)
			}
			if resp, _, err = c.Replica(sec).QueryLevel(readpath.Session, readpath.Token{}, q); err != nil || string(resp) != fmt.Sprintf("v%d", i) {
				t.Fatalf("session read %d = %q, %v", i, resp, err)
			}
		}
		if after := stateOf(t, c.Replica(sec)); after != before {
			t.Fatal("follower reads changed replica state")
		}
		c.Stop()
	})
}

// TestUnclassifiedQueryBouncesToPrimary checks the default-deny side of
// the hook: a state machine without ClassifyQuery never serves follower
// reads; the client falls back to the primary instead.
func TestUnclassifiedQueryBouncesToPrimary(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		factory := func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
			return &unclassifiedSM{kv: newTKV(rt, host).(*tkv)}
		}
		c := cluster.New(e, factory, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		if _, err := cl.Do([]byte("put u x")); err != nil {
			t.Fatal(err)
		}
		sec := (p + 1) % c.Size()
		if _, _, err := c.Replica(sec).QueryLevel(readpath.Eventual, readpath.Token{}, []byte("get u")); !errors.Is(err, readpath.ErrPrimaryOnly) {
			t.Fatalf("unclassified follower read: got %v, want ErrPrimaryOnly", err)
		}
		// The client falls back to the primary and still answers.
		resp, err := cl.QueryLevel(readpath.Eventual, []byte("get u"))
		if err != nil || string(resp) != "x" {
			t.Fatalf("client fallback read = %q, %v", resp, err)
		}
		c.Stop()
	})
}
